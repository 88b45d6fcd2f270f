// The lock-free-reader snapshot API: the observability plane's read
// path into a Registry whose counters and histograms are plain (not
// atomic) uint64s written by exactly one goroutine.
//
// The problem it solves: an HTTP /metrics scrape runs on an arbitrary
// goroutine, but reading a counter concurrently with its owner's
// `field++` is a data race, and wrapping every hot-path increment in an
// atomic would tax the very paths BENCH_PR3 proved free. Instead the
// *writer* publishes: at a boundary it already owns (end of tick, a
// supervision event) it captures the whole registry into an immutable
// MetricsSnapshot and stores the pointer atomically. Readers only ever
// load that pointer — they never touch the registry — so a scrape can
// neither race nor perturb the hot path.
//
// The idle cost is one atomic load per writer boundary: Pump publishes
// only when a reader has raised the want flag, so a run that is never
// scraped pays a single predictable branch (the same budget as a
// disabled tracepoint), which BenchmarkTickScrapeUnderLoad gates
// against the BenchmarkTickTelemetryOn bar.
package telemetry

import (
	"sync/atomic"
	"time"
)

// CounterSample is one counter's value at capture time.
type CounterSample struct {
	Name  string
	Value uint64
}

// GaugeSample is one gauge's evaluation at capture time.
type GaugeSample struct {
	Name  string
	Value float64
}

// HistogramSample is one histogram's state at capture time: summary
// fields plus the non-empty log-linear buckets as (lo, count) pairs in
// ascending order (the Buckets layout).
type HistogramSample struct {
	Name     string
	Count    uint64
	Sum      uint64
	Min, Max uint64
	Buckets  [][2]uint64
}

// MetricsSnapshot is an immutable copy of a Registry. Once published it
// is never written again, so any number of goroutines may read it.
type MetricsSnapshot struct {
	// Tick is the writer's clock at capture (whatever unit the writer
	// pumps with — ticks, supervision events).
	Tick uint64
	// Gen increments per publication; readers use it to tell a fresh
	// snapshot from the one they already saw.
	Gen        uint64
	Counters   []CounterSample
	Gauges     []GaugeSample
	Histograms []HistogramSample
}

// Capture copies the registry's current state. It reads counters,
// evaluates gauges, and walks histogram buckets, so it must be called
// from the goroutine that owns the registry's writers — that is the
// whole point of the publisher indirection.
func (r *Registry) Capture(tick uint64) *MetricsSnapshot {
	s := &MetricsSnapshot{Tick: tick}
	s.Counters = make([]CounterSample, 0, len(r.counters))
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterSample{Name: c.Name(), Value: c.Value()})
	}
	s.Gauges = make([]GaugeSample, 0, len(r.gauges))
	for _, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSample{Name: g.Name(), Value: g.Value()})
	}
	s.Histograms = make([]HistogramSample, 0, len(r.hists))
	for _, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramSample{
			Name: h.Name(), Count: h.Count(), Sum: h.Sum(),
			Min: h.Min(), Max: h.Max(), Buckets: h.Buckets(nil),
		})
	}
	return s
}

// Publisher mediates between a registry's single writer goroutine and
// any number of reader goroutines. The writer calls Pump (conditional)
// or Publish (unconditional); readers call Latest or Fresh. A nil
// *Publisher is the disabled observability plane: every method is a
// cheap no-op, mirroring the nil-Ring contract.
type Publisher struct {
	reg  *Registry
	snap atomic.Pointer[MetricsSnapshot]
	want atomic.Bool
	gen  atomic.Uint64
}

// NewPublisher wraps reg. The registry stays fully owned by its writer;
// the publisher only adds the publication channel.
func NewPublisher(reg *Registry) *Publisher {
	return &Publisher{reg: reg}
}

// Pump is the writer's per-boundary check: publish a fresh snapshot iff
// a reader asked for one since the last publication. The no-reader cost
// is one atomic load — cheap enough to sit next to Sampler.Sample on
// the tick path.
func (p *Publisher) Pump(tick uint64) {
	if p == nil || !p.want.Load() {
		return
	}
	p.want.Store(false)
	p.publish(tick)
}

// Publish unconditionally captures and publishes. Writer-side only;
// typical at attach time (a baseline snapshot) and end of run (the
// final totals).
func (p *Publisher) Publish(tick uint64) {
	if p == nil {
		return
	}
	p.publish(tick)
}

func (p *Publisher) publish(tick uint64) {
	s := p.reg.Capture(tick)
	s.Gen = p.gen.Add(1)
	p.snap.Store(s)
}

// Fresh raises the want flag and waits up to wait for the writer to
// pump a new snapshot, then returns the latest one — which is the
// previous (possibly nil) snapshot when the writer did not come around
// in time. Scrapes therefore degrade to slightly stale data instead of
// ever blocking the writer. Safe from any goroutine.
func (p *Publisher) Fresh(wait time.Duration) *MetricsSnapshot {
	if p == nil {
		return nil
	}
	before := p.gen.Load()
	p.want.Store(true)
	deadline := time.Now().Add(wait)
	for p.gen.Load() == before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return p.snap.Load()
}
