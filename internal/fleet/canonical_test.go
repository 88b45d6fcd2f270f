package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"contiguitas/internal/core"
)

// TestParseCanonicalRoundTrip: ParseCanonical inverts CanonicalBytes
// exactly, for both designs, with and without jitter, at two fleet
// shapes.
func TestParseCanonicalRoundTrip(t *testing.T) {
	for _, design := range []core.Design{core.DesignLinux, core.DesignContiguitas} {
		for _, jitter := range []float64{0, 0.5} {
			for _, servers := range []int{5, 12} {
				cfg := tinyConfig()
				cfg.Design = design
				cfg.JitterFrac = jitter
				cfg.Servers = servers
				s := Run(cfg)
				b := CanonicalBytes(s)
				got, err := ParseCanonical(b)
				if err != nil {
					t.Fatalf("%v jitter=%g servers=%d: %v", design, jitter, servers, err)
				}
				if !bytes.Equal(CanonicalBytes(got), b) {
					t.Fatalf("%v jitter=%g servers=%d: round trip changed the bytes", design, jitter, servers)
				}
				if !reflect.DeepEqual(got.Samples, s.Samples) {
					t.Fatalf("%v jitter=%g servers=%d: parsed samples differ", design, jitter, servers)
				}
			}
		}
	}
	empty, err := ParseCanonical(CanonicalBytes(&Study{}))
	if err != nil || len(empty.Samples) != 0 {
		t.Fatalf("empty study: %v, %d samples", err, len(empty.Samples))
	}
}

// TestParseCanonicalRejects: truncated input, a trailing byte, and a
// sample count that disagrees with the body are each the typed error.
func TestParseCanonicalRejects(t *testing.T) {
	b := CanonicalBytes(Run(tinyConfig()))
	withCount := func(n uint64) []byte {
		out := append([]byte(nil), b...)
		binary.LittleEndian.PutUint64(out, n)
		return out
	}
	n := binary.LittleEndian.Uint64(b)
	for name, in := range map[string][]byte{
		"empty":          nil,
		"short count":    b[:4],
		"truncated":      b[:len(b)-1],
		"mid-profile":    b[:9],
		"trailing byte":  append(append([]byte(nil), b...), 0),
		"count too high": withCount(n + 1),
		"count too low":  withCount(n - 1),
		"count huge":     withCount(1 << 62),
	} {
		s, err := ParseCanonical(in)
		if !errors.Is(err, ErrCanonical) || s != nil {
			t.Errorf("%s: got study=%v err=%v, want ErrCanonical", name, s != nil, err)
		}
	}
}
