package psi

import (
	"math"
	"testing"
)

func TestTrackerRisesUnderStall(t *testing.T) {
	tr := NewTracker(10)
	for i := 0; i < 200; i++ {
		tr.Tick(1)
	}
	if p := tr.Pressure(); p < 99 {
		t.Fatalf("pressure after sustained stall = %v, want ~100", p)
	}
}

func TestTrackerDecays(t *testing.T) {
	tr := NewTracker(10)
	for i := 0; i < 100; i++ {
		tr.Tick(1)
	}
	high := tr.Pressure()
	for i := 0; i < 10; i++ {
		tr.Tick(0)
	}
	mid := tr.Pressure()
	// After exactly one half-life of zero samples, pressure halves.
	if math.Abs(mid-high/2) > 1 {
		t.Fatalf("pressure after one half-life = %v, want ~%v", mid, high/2)
	}
	for i := 0; i < 500; i++ {
		tr.Tick(0)
	}
	if p := tr.Pressure(); p > 0.01 {
		t.Fatalf("pressure should decay to ~0, got %v", p)
	}
}

func TestTrackerClampsInput(t *testing.T) {
	tr := NewTracker(5)
	tr.Tick(5)
	tr.Tick(-3)
	if snap := tr.Snapshot(); snap.TotalStall != 1 {
		t.Fatalf("total stall = %v, want 1 (clamped)", snap.TotalStall)
	} else if snap.Ticks != 2 {
		t.Fatalf("ticks = %d, want 2", snap.Ticks)
	}
}

func TestTrackerBounds(t *testing.T) {
	tr := NewTracker(3)
	for i := 0; i < 1000; i++ {
		tr.Tick(float64(i%2) * 0.7)
		if p := tr.Pressure(); p < 0 || p > 100 {
			t.Fatalf("pressure out of bounds: %v", p)
		}
	}
}

func TestNewTrackerPanicsOnBadHalfLife(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTracker(0)
}

func TestPerRegionIndependence(t *testing.T) {
	p := NewPerRegion(10)
	for i := 0; i < 100; i++ {
		p.AddStall(RegionUnmovable, 1)
		p.EndTick()
	}
	if p.Pressure(RegionUnmovable) < 99 {
		t.Fatalf("unmovable pressure = %v", p.Pressure(RegionUnmovable))
	}
	if p.Pressure(RegionMovable) != 0 {
		t.Fatalf("movable pressure = %v, want 0", p.Pressure(RegionMovable))
	}
}

func TestPerRegionAccumulatesWithinTick(t *testing.T) {
	p := NewPerRegion(10)
	p.AddStall(RegionMovable, 0.3)
	p.AddStall(RegionMovable, 0.4)
	p.EndTick()
	want := 0.7 * (1 - math.Exp2(-0.1)) * 100
	if got := p.Pressure(RegionMovable); math.Abs(got-want) > 1e-9 {
		t.Fatalf("pressure = %v, want %v", got, want)
	}
	// Pending resets after EndTick.
	p.EndTick()
	if p.Snapshot(RegionMovable).Ticks != 2 {
		t.Fatal("EndTick must always record a tick")
	}
}

func TestPerRegionClampsAtFullTick(t *testing.T) {
	// Multiple stall events within one tick accumulate but are clamped
	// at a full tick when fed to the tracker: total stall can never
	// exceed wall time.
	p := NewPerRegion(10)
	p.AddStall(RegionMovable, 0.8)
	p.AddStall(RegionMovable, 0.9)
	p.AddStall(RegionMovable, 2.5)
	p.EndTick()
	if total := p.Snapshot(RegionMovable).TotalStall; total != 1 {
		t.Fatalf("total stall = %v, want 1 (clamped at a full tick)", total)
	}
	// Negative fractions are ignored at AddStall, not subtracted.
	p.AddStall(RegionMovable, -0.5)
	p.AddStall(RegionMovable, 0.25)
	p.EndTick()
	if total := p.Snapshot(RegionMovable).TotalStall; total != 1.25 {
		t.Fatalf("total stall = %v, want 1.25", total)
	}
}

func TestTrackerHalfLifeParameterized(t *testing.T) {
	// The defining property of the decay constant: after saturating the
	// average, exactly halfLife ticks of zero samples halve it —
	// whatever the half-life.
	for _, halfLife := range []int{2, 10, 100} {
		tr := NewTracker(float64(halfLife))
		for i := 0; i < 100*halfLife; i++ {
			tr.Tick(1)
		}
		before := tr.Pressure()
		for i := 0; i < halfLife; i++ {
			tr.Tick(0)
		}
		after := tr.Pressure()
		if math.Abs(after-before/2) > before*0.01 {
			t.Fatalf("halfLife=%d: pressure %v -> %v, want ~%v", halfLife, before, after, before/2)
		}
	}
}

func TestSnapshotZeroTicks(t *testing.T) {
	// A tracker that never ticked snapshots as all zeros — consumers
	// (exporters, the resizer) must not see NaN or garbage at boot.
	tr := NewTracker(10)
	s := tr.Snapshot()
	if s != (Snapshot{}) {
		t.Fatalf("zero-tick snapshot = %+v, want zero value", s)
	}
	p := NewPerRegion(10)
	if got := p.Snapshot(RegionUnmovable); got != (Snapshot{}) {
		t.Fatalf("zero-tick region snapshot = %+v", got)
	}
}

func TestSnapshotTracksState(t *testing.T) {
	tr := NewTracker(10)
	tr.Tick(0.5)
	tr.Tick(0.25)
	s := tr.Snapshot()
	if s.Ticks != 2 || s.TotalStall != 0.75 || s.Pressure != tr.Pressure() {
		t.Fatalf("snapshot = %+v", s)
	}
	// The snapshot is a copy: the tracker moving on must not change it.
	tr.Tick(1)
	if s.Ticks != 2 {
		t.Fatal("snapshot mutated by later ticks")
	}
}

func TestRegionString(t *testing.T) {
	if RegionMovable.String() != "movable" || RegionUnmovable.String() != "unmovable" {
		t.Fatal("region names wrong")
	}
	if Region(9).String() == "" {
		t.Fatal("unknown region must stringify")
	}
}
