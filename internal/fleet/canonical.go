// Canonical study serialisation: the byte-exact identity every
// robustness gate in this repository compares on. Two studies are equal
// iff their canonical bytes are — a stronger check than comparing
// printed CDFs, and the contract behind "byte-identical across worker
// counts, crashes, retries, checkpoint/resume, and process restarts"
// (the fleetscan -soak gate, the service layer's result files, and the
// CI service-soak job all cmp these bytes).
package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"contiguitas/internal/mem"
)

// ErrCanonical reports bytes that are not a CanonicalBytes
// serialisation: truncated, trailing, or malformed input.
var ErrCanonical = errors.New("fleet: malformed canonical study bytes")

// CanonicalBytes serialises every sample field in canonical order (map
// keys walked via the fixed scan-order list), independent of how the
// study was scheduled or resumed.
func CanonicalBytes(s *Study) []byte {
	var buf bytes.Buffer
	u64 := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(len(s.Samples)))
	for i := range s.Samples {
		smp := &s.Samples[i]
		buf.WriteString(smp.Profile)
		buf.WriteByte(0)
		u64(smp.Uptime)
		u64(smp.FreePages)
		u64(smp.Free2MBlocks)
		f64(smp.UnmovFrameFrac)
		for _, o := range mem.ScanOrders {
			f64(smp.FreeContigFrac[o])
			f64(smp.UnmovBlockFrac[o])
		}
		for _, v := range smp.SourceBreakdown {
			u64(v)
		}
	}
	return buf.Bytes()
}

// minSampleBytes is the smallest canonical sample: an empty profile's
// NUL plus every fixed-width field.
var minSampleBytes = 1 + 8*(4+2*len(mem.ScanOrders)+mem.NumSources)

// ParseCanonical is the exact inverse of CanonicalBytes: for every b it
// accepts, CanonicalBytes(ParseCanonical(b)) == b. Anything else is
// ErrCanonical. The bytes carry samples only, so the study's Cfg is
// zero.
func ParseCanonical(b []byte) (*Study, error) {
	short := false
	u64 := func() uint64 {
		if len(b) < 8 {
			short = true
			return 0
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	f64 := func() float64 { return math.Float64frombits(u64()) }
	n := u64()
	if n > uint64(len(b)/minSampleBytes) {
		// Refuse a count the input cannot hold before allocating for it.
		return nil, fmt.Errorf("%w: %d samples in %d bytes", ErrCanonical, n, len(b))
	}
	samples := make([]Sample, n)
	for i := range samples {
		profile, rest, ok := bytes.Cut(b, []byte{0})
		if !ok {
			return nil, fmt.Errorf("%w: sample %d truncated", ErrCanonical, i)
		}
		b = rest
		smp := &samples[i]
		smp.Profile = string(profile)
		smp.Uptime, smp.FreePages, smp.Free2MBlocks = u64(), u64(), u64()
		smp.UnmovFrameFrac = f64()
		for _, o := range mem.ScanOrders {
			smp.FreeContigFrac[o], smp.UnmovBlockFrac[o] = f64(), f64()
		}
		for j := range smp.SourceBreakdown {
			smp.SourceBreakdown[j] = u64()
		}
	}
	switch {
	case short:
		return nil, fmt.Errorf("%w: truncated", ErrCanonical)
	case len(b) != 0:
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCanonical, len(b))
	}
	return &Study{Samples: samples}, nil
}

// CanonicalDigest returns the FNV-1a digest of CanonicalBytes — the
// compact result identity stored in service campaign records.
func CanonicalDigest(s *Study) uint64 {
	h := fnv.New64a()
	h.Write(CanonicalBytes(s))
	return h.Sum64()
}
