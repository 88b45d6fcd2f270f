// Package psi implements pressure-stall-information accounting in the
// style of the Linux kernel's PSI subsystem: the percentage of wall time
// some task wasted waiting on memory. Contiguitas extends PSI to track
// the movable and unmovable regions separately (§3.2); its resizing
// algorithm consumes the two per-region pressures.
//
// The simulator advances in discrete ticks. Each tick the kernel reports
// the fraction of the tick spent stalled on memory; the tracker keeps an
// exponentially-decayed average analogous to one of the kernel's
// avg10/60/300 windows.
package psi

import (
	"fmt"
	"math"
)

// Tracker keeps an exponentially-weighted average of stall fractions.
type Tracker struct {
	halfLife float64 // ticks until a sample's weight halves
	decay    float64
	avg      float64
	total    float64 // lifetime stall ticks, for accounting
	ticks    uint64
}

// NewTracker creates a tracker whose average halves in halfLifeTicks.
func NewTracker(halfLifeTicks float64) *Tracker {
	if halfLifeTicks <= 0 {
		panic("psi: half life must be positive")
	}
	return &Tracker{
		halfLife: halfLifeTicks,
		decay:    math.Exp2(-1 / halfLifeTicks),
	}
}

// Tick records one tick with the given stalled fraction in [0, 1];
// out-of-range values are clamped.
func (t *Tracker) Tick(stalledFraction float64) {
	if stalledFraction < 0 {
		stalledFraction = 0
	} else if stalledFraction > 1 {
		stalledFraction = 1
	}
	t.avg = t.avg*t.decay + stalledFraction*(1-t.decay)
	t.total += stalledFraction
	t.ticks++
}

// Pressure returns the current windowed stall percentage in [0, 100].
func (t *Tracker) Pressure() float64 { return t.avg * 100 }

// String renders the tracker compactly.
func (t *Tracker) String() string {
	return fmt.Sprintf("psi{avg=%.3f%% total=%.1f ticks=%d}", t.Pressure(), t.total, t.ticks)
}

// Snapshot is a point-in-time copy of a tracker's observable state,
// safe to retain after the tracker moves on. A zero-tick tracker
// snapshots as all zeros.
type Snapshot struct {
	Pressure   float64 // windowed stall percentage, [0, 100]
	TotalStall float64 // lifetime sum of stall fractions, in ticks
	Ticks      uint64  // ticks recorded
}

// Snapshot captures the tracker's current state.
func (t *Tracker) Snapshot() Snapshot {
	return Snapshot{Pressure: t.Pressure(), TotalStall: t.total, Ticks: t.ticks}
}

// TrackerState is the full serializable state of a Tracker: everything
// needed to resume the exponentially-decayed average bit-for-bit. The
// half-life is configuration, not state — SetState assumes the tracker
// was constructed with the same half-life as the one exported.
type TrackerState struct {
	Avg   float64
	Total float64
	Ticks uint64
}

// State captures the tracker's mutable state for checkpointing.
func (t *Tracker) State() TrackerState {
	return TrackerState{Avg: t.avg, Total: t.total, Ticks: t.ticks}
}

// SetState restores mutable state captured by State.
func (t *Tracker) SetState(s TrackerState) {
	t.avg = s.Avg
	t.total = s.Total
	t.ticks = s.Ticks
}

// Region identifies which physical-memory region a pressure reading
// belongs to.
type Region uint8

const (
	RegionMovable Region = iota
	RegionUnmovable
	NumRegions
)

// String returns the printable region name.
func (r Region) String() string {
	switch r {
	case RegionMovable:
		return "movable"
	case RegionUnmovable:
		return "unmovable"
	}
	return fmt.Sprintf("region(%d)", uint8(r))
}

// PerRegion tracks pressure separately for the movable and unmovable
// regions — the paper's extension of kernel PSI.
type PerRegion struct {
	trackers [NumRegions]*Tracker
	pending  [NumRegions]float64
}

// NewPerRegion creates per-region trackers with the given half-life.
func NewPerRegion(halfLifeTicks float64) *PerRegion {
	p := &PerRegion{}
	for i := range p.trackers {
		p.trackers[i] = NewTracker(halfLifeTicks)
	}
	return p
}

// AddStall accumulates stall time (in tick fractions) against a region
// within the current tick. Multiple events within one tick add up and
// are clamped at a full tick when the tick closes.
func (p *PerRegion) AddStall(r Region, fraction float64) {
	if fraction > 0 {
		p.pending[r] += fraction
	}
}

// EndTick closes the current tick, feeding the accumulated stall
// fractions into the trackers.
func (p *PerRegion) EndTick() {
	for i := range p.trackers {
		p.trackers[i].Tick(p.pending[i])
		p.pending[i] = 0
	}
}

// PerRegionState is the full serializable state of a PerRegion tracker.
// Pending stall fractions are included so a checkpoint taken mid-tick
// (before EndTick) still round-trips, though the simulator checkpoints
// at the tick barrier where they are always zero.
type PerRegionState struct {
	Trackers [NumRegions]TrackerState
	Pending  [NumRegions]float64
}

// State captures the per-region tracker state for checkpointing.
func (p *PerRegion) State() PerRegionState {
	var s PerRegionState
	for i, t := range p.trackers {
		s.Trackers[i] = t.State()
	}
	s.Pending = p.pending
	return s
}

// SetState restores state captured by State. The trackers must have been
// constructed with the same half-life as the exported ones.
func (p *PerRegion) SetState(s PerRegionState) {
	for i, t := range p.trackers {
		t.SetState(s.Trackers[i])
	}
	p.pending = s.Pending
}

// Pressure returns the windowed stall percentage for the region.
func (p *PerRegion) Pressure(r Region) float64 { return p.trackers[r].Pressure() }

// Pending returns the stall fraction accumulated against the region so
// far in the current (not yet closed) tick. The admission gate samples
// it at the tick barrier to feed its own short-half-life tracker.
func (p *PerRegion) Pending(r Region) float64 { return p.pending[r] }

// Snapshot captures the region's tracker state.
func (p *PerRegion) Snapshot(r Region) Snapshot { return p.trackers[r].Snapshot() }
