package trace

import (
	"strconv"
	"strings"

	"contiguitas/internal/kernel"
	"contiguitas/internal/telemetry"
)

// Robustness is a snapshot of the kernel's failure-handling counters —
// the observability companion to the fault-injection machinery. The
// chaos driver takes one per checkpoint.
//
// The snapshot is derived from the metric registry's TagRobustness set,
// so the counter names exist in exactly one place: the kernel's
// registration table (kernel.Metrics). Adding a failure counter there
// automatically extends every chaos report.
type Robustness struct {
	names []string
	vals  []uint64
}

// SnapshotRobustness captures the kernel's current failure counters.
func SnapshotRobustness(k *kernel.Kernel) Robustness {
	cs := k.Metrics().Tagged(telemetry.TagRobustness)
	r := Robustness{names: make([]string, len(cs)), vals: make([]uint64, len(cs))}
	for i, c := range cs {
		r.names[i] = c.Name()
		r.vals[i] = c.Value()
	}
	return r
}

// Value returns the named counter's value (0 when absent).
func (r Robustness) Value(name string) uint64 {
	for i, n := range r.names {
		if n == name {
			return r.vals[i]
		}
	}
	return 0
}

// String renders the snapshot as one stable, greppable line of
// name=value pairs in registration order.
func (r Robustness) String() string {
	var b strings.Builder
	for i, n := range r.names {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(r.vals[i], 10))
	}
	return b.String()
}
