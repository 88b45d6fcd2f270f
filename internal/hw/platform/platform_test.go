package platform

import (
	"math"
	"testing"

	"contiguitas/internal/hw"
	"contiguitas/internal/hw/contighw"
)

func TestAccessThroughTLBAndCaches(t *testing.T) {
	m := NewMachine(hw.DefaultParams(), nil)
	m.MapPage(5, 50)
	va := uint64(5)<<hw.PageShift + 128
	m.Access(0, va, true, 88, 0)
	v, _ := m.Access(0, va, false, 0, 100)
	if v != 88 {
		t.Fatalf("read %d, want 88", v)
	}
	if m.TLBs[0].Walks != 1 {
		t.Fatalf("walks = %d, want 1 (second access hits TLB)", m.TLBs[0].Walks)
	}
}

func TestSoftwareMigrateBlocksAndScales(t *testing.T) {
	var prev uint64
	for v := 1; v <= 8; v++ {
		m := NewMachine(hw.DefaultParams(), nil)
		m.MapPage(10, 100)
		victims := make([]int, v)
		for i := range victims {
			victims[i] = i % (m.P.Cores - 1)
		}
		rep := m.SoftwareMigrate(0, 10, 100, 200, victims)
		if rep.UnavailableCycles <= prev {
			t.Fatalf("%d victims: %d cycles, not above %d", v, rep.UnavailableCycles, prev)
		}
		prev = rep.UnavailableCycles
		// The mapping must point at the destination afterwards.
		if m.PageTableLookup(10) != 200 {
			t.Fatal("PTE not updated")
		}
	}
}

func TestFig13SeriesShape(t *testing.T) {
	pts := Fig13Series(8)
	if len(pts) != 8 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		// Sim within the paper's validation band of real: -6%..+10%.
		dev := (float64(p.LinuxSim) - float64(p.LinuxReal)) / float64(p.LinuxReal)
		if dev < -0.06 || dev > 0.10 {
			t.Fatalf("victims=%d: sim %d vs real %d (%.1f%% off)", p.Victims, p.LinuxSim, p.LinuxReal, dev*100)
		}
		// Contiguitas constant and far below Linux.
		if p.Contiguitas != pts[0].Contiguitas {
			t.Fatal("Contiguitas series must be constant")
		}
		if p.Contiguitas*4 > p.LinuxSim {
			t.Fatalf("victims=%d: Contiguitas %d not clearly below Linux %d", p.Victims, p.Contiguitas, p.LinuxSim)
		}
		if i > 0 && p.LinuxSim <= pts[i-1].LinuxSim {
			t.Fatal("Linux series must grow with victims")
		}
	}
	// Paper anchors: ~2.5K cycles at 1 victim, ~8K at 8.
	if pts[0].LinuxSim < 2000 || pts[0].LinuxSim > 3500 {
		t.Fatalf("1-victim sim = %d", pts[0].LinuxSim)
	}
	if pts[7].LinuxSim < 7000 || pts[7].LinuxSim > 9000 {
		t.Fatalf("8-victim sim = %d", pts[7].LinuxSim)
	}
}

func TestHWMigratePreservesDataAndMapping(t *testing.T) {
	for _, mode := range []contighw.Mode{contighw.Noncacheable, contighw.Cacheable} {
		md := mode
		m := NewMachine(hw.DefaultParams(), &md)
		m.MapPage(10, 100)
		// Populate the page through the normal access path.
		for i := 0; i < hw.LinesPerPage; i++ {
			va := uint64(10)<<hw.PageShift + uint64(i)*hw.LineBytes
			m.Access(i%m.P.Cores, va, true, 7000+uint64(i), 0)
		}
		rep, err := m.HWMigrate(10, 100, 200, HWMigrateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.UnavailableCycles != m.P.INVLPGCycles {
			t.Fatalf("unavailable = %d, want one local invalidation", rep.UnavailableCycles)
		}
		if m.PageTableLookup(10) != 200 {
			t.Fatal("PTE must point at destination")
		}
		for i := 0; i < hw.LinesPerPage; i++ {
			va := uint64(10)<<hw.PageShift + uint64(i)*hw.LineBytes
			v, _ := m.Access((i+3)%m.P.Cores, va, false, 0, m.Eng.Now())
			if v != 7000+uint64(i) {
				t.Fatalf("mode=%v line %d = %d after migration", mode, i, v)
			}
		}
	}
}

func TestHWMigrateRequiresHardware(t *testing.T) {
	m := NewMachine(hw.DefaultParams(), nil)
	if _, err := m.HWMigrate(1, 2, 3, HWMigrateOptions{}); err == nil {
		t.Fatal("baseline machine must refuse HW migration")
	}
}

func TestDeviceAccessCoherentWithCores(t *testing.T) {
	md := contighw.Noncacheable
	m := NewMachine(hw.DefaultParams(), &md)
	m.MapPage(3, 30)
	va := uint64(3) << hw.PageShift
	// NIC writes (DMA), core reads.
	m.DeviceAccess(va, true, 456, 0)
	v, _ := m.Access(0, va, false, 0, 100)
	if v != 456 {
		t.Fatalf("core read %d after DMA, want 456", v)
	}
	// Core writes, NIC reads.
	m.Access(1, va, true, 789, 200)
	v, _ = m.DeviceAccess(va, false, 0, 300)
	if v != 789 {
		t.Fatalf("NIC read %d, want 789", v)
	}
}

func TestDeviceTrafficDuringMigration(t *testing.T) {
	// The defining capability: the NIC keeps writing to a pinned buffer
	// page while Contiguitas-HW migrates it; nothing is lost.
	for _, mode := range []contighw.Mode{contighw.Noncacheable, contighw.Cacheable} {
		md := mode
		m := NewMachine(hw.DefaultParams(), &md)
		m.MapPage(20, 500)
		ref := make(map[int]uint64)
		for i := 0; i < hw.LinesPerPage; i++ {
			va := uint64(20)<<hw.PageShift + uint64(i)*hw.LineBytes
			m.DeviceAccess(va, true, uint64(i), 0)
			ref[i] = uint64(i)
		}
		done := false
		if err := m.StartHWMigration(20, 500, 600, HWMigrateOptions{}, func() { done = true }); err != nil {
			t.Fatal(err)
		}
		// Interleave NIC writes with the copy.
		step := 0
		for !done && step < 10000 {
			m.Eng.RunUntil(m.Eng.Now() + 200)
			if done {
				break
			}
			i := step % hw.LinesPerPage
			va := uint64(20)<<hw.PageShift + uint64(i)*hw.LineBytes
			m.DeviceAccess(va, true, 100000+uint64(step), m.Eng.Now())
			ref[i] = 100000 + uint64(step)
			step++
		}
		m.Eng.Run()
		for i := 0; i < hw.LinesPerPage; i++ {
			va := uint64(20)<<hw.PageShift + uint64(i)*hw.LineBytes
			v, _ := m.Access(0, va, false, 0, m.Eng.Now())
			if v != ref[i] {
				t.Fatalf("mode=%v line %d = %d, want %d", mode, i, v, ref[i])
			}
		}
	}
}

func TestServeBenchmarkBaseline(t *testing.T) {
	md := contighw.Noncacheable
	m := NewMachine(hw.DefaultParams(), &md)
	cfg := DefaultServeConfig()
	cfg.DurationCycles = 1_000_000
	res := ServeBenchmark(m, cfg)
	if res.Requests == 0 {
		t.Fatal("no requests served")
	}
	if res.Migrations != 0 {
		t.Fatal("baseline must not migrate")
	}
}

// TestSec53MigrationOverhead reproduces the §5.3 result: at the Regular
// rate (100/s) migration overhead is negligible; even at Very High
// (1000/s) the noncacheable design loses well under 1% and the
// cacheable design is unaffected.
func TestSec53MigrationOverhead(t *testing.T) {
	run := func(mode contighw.Mode, rate float64) ServeResult {
		md := mode
		m := NewMachine(hw.DefaultParams(), &md)
		cfg := DefaultServeConfig()
		cfg.DurationCycles = 3_000_000
		cfg.MigrationsPerSec = rate
		return ServeBenchmark(m, cfg)
	}
	for _, mode := range []contighw.Mode{contighw.Noncacheable, contighw.Cacheable} {
		base := run(mode, 0)
		regular := run(mode, 100)
		veryHigh := run(mode, 1000)
		lossReg := 1 - regular.RequestsPerMCycle/base.RequestsPerMCycle
		lossHigh := 1 - veryHigh.RequestsPerMCycle/base.RequestsPerMCycle
		if math.Abs(lossReg) > 0.01 {
			t.Fatalf("%v regular-rate loss = %.3f%%, want ~0", mode, lossReg*100)
		}
		if lossHigh > 0.01 {
			t.Fatalf("%v very-high-rate loss = %.3f%%, want < 1%%", mode, lossHigh*100)
		}
	}
}

func TestServeLatencyPercentiles(t *testing.T) {
	md := contighw.Cacheable
	m := NewMachine(hw.DefaultParams(), &md)
	cfg := DefaultServeConfig()
	cfg.DurationCycles = 1_000_000
	res := ServeBenchmark(m, cfg)
	if res.P50LatencyCycles <= 0 || res.P99LatencyCycles < res.P50LatencyCycles {
		t.Fatalf("latency percentiles: p50=%v p99=%v", res.P50LatencyCycles, res.P99LatencyCycles)
	}
}

// TestSec53TailLatencyFlat is the SLA half of §5.3: migrations at the
// Very High rate must not inflate P99 request latency materially.
func TestSec53TailLatencyFlat(t *testing.T) {
	run := func(rate float64) ServeResult {
		md := contighw.Cacheable
		m := NewMachine(hw.DefaultParams(), &md)
		cfg := DefaultServeConfig()
		cfg.DurationCycles = 2_000_000
		cfg.MigrationsPerSec = rate
		return ServeBenchmark(m, cfg)
	}
	base := run(0)
	high := run(1000)
	if high.P99LatencyCycles > base.P99LatencyCycles*1.10 {
		t.Fatalf("P99 inflated by migrations: %v -> %v",
			base.P99LatencyCycles, high.P99LatencyCycles)
	}
}
