package kernel

import (
	"testing"

	"contiguitas/internal/fault"
	"contiguitas/internal/mem"
	"contiguitas/internal/pressure"
	"contiguitas/internal/statetest"
	"contiguitas/internal/stats"
)

// snapDriver churns a kernel deterministically through the public API,
// tracking its pool as head PFNs so it can be cloned across a restore
// (handle identity does not survive; PFNs do).
type snapDriver struct {
	k    *Kernel
	rng  *stats.RNG
	pfns []uint64
}

func (d *snapDriver) clone(k *Kernel) *snapDriver {
	s0, s1 := d.rng.State()
	r := stats.NewRNG(1)
	r.SetState(s0, s1)
	return &snapDriver{k: k, rng: r, pfns: append([]uint64(nil), d.pfns...)}
}

func (d *snapDriver) step(t *testing.T) {
	t.Helper()
	// Free a random quarter of the pool (page-cache entries may have
	// been reclaimed behind our back — skip dead handles).
	for i := 0; i < len(d.pfns)/4 && len(d.pfns) > 0; i++ {
		j := d.rng.Intn(len(d.pfns))
		if p, ok := d.k.PageAt(d.pfns[j]); ok {
			if d.k.Page(p).Pinned {
				d.k.Unpin(p)
			}
			if err := d.k.Free(p); err != nil {
				t.Fatalf("free pfn %d: %v", d.pfns[j], err)
			}
		}
		d.pfns[j] = d.pfns[len(d.pfns)-1]
		d.pfns = d.pfns[:len(d.pfns)-1]
	}
	// Allocate a mixed batch.
	orders := []int{0, 0, 0, 1, 2, mem.Order2M}
	for i := 0; i < 48; i++ {
		order := orders[d.rng.Intn(len(orders))]
		var p Handle
		var err error
		switch d.rng.Intn(4) {
		case 0:
			p, err = d.k.Alloc(order, mem.MigrateUnmovable, mem.SrcSlab)
		case 1:
			p, err = d.k.AllocPageCache(0, mem.SrcFilesystem)
		case 2:
			p, err = d.k.Alloc(order, mem.MigrateMovable, mem.SrcUser)
			if err == nil && d.rng.Bool(0.2) {
				if perr := d.k.Pin(p); perr != nil {
					// Pin can fail under pressure; the page stays movable.
					_ = perr
				}
			}
		default:
			p, err = d.k.Alloc(order, mem.MigrateMovable, mem.SrcUser)
		}
		if err == nil {
			d.pfns = append(d.pfns, d.k.Page(p).PFN)
		}
	}
	// Periodic contiguity demand keeps compaction's cross-tick state
	// (cursors, deferral, retries) populated.
	if d.rng.Bool(0.1) {
		huge := d.k.AllocHugeTLB(mem.Order2M, 1)
		d.k.FreeHugeTLB(&huge)
	}
	d.k.EndTick()
}

func snapTestConfig(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.MemBytes = 128 << 20
	cfg.InitialUnmovableBytes = 16 << 20
	cfg.MinUnmovableBytes = 4 << 20
	cfg.MaxUnmovableBytes = 64 << 20
	cfg.Seed = 7
	return cfg
}

func testSnapshotRoundTrip(t *testing.T, mode Mode, withFaults bool) {
	cfg := snapTestConfig(mode)
	if mode == ModeContiguitas {
		cfg.HWMover = NewAnalyticMover()
	}
	if withFaults {
		inj := fault.New(99)
		inj.Arm(fault.PointSWMigrate, fault.Trigger{Prob: 0.05})
		inj.Arm(fault.PointCompactCarve, fault.Trigger{Prob: 0.05})
		if mode == ModeContiguitas {
			inj.Arm(fault.PointHWMover, fault.Trigger{Prob: 0.1})
			inj.Arm(fault.PointRegionResize, fault.Trigger{Prob: 0.1})
		}
		cfg.Faults = inj
	}
	k := New(cfg)
	d := &snapDriver{k: k, rng: stats.NewRNG(42)}
	for i := 0; i < 120; i++ {
		d.step(t)
	}

	st := k.ExportState()
	h := st.Hash()

	rcfg := cfg
	if withFaults {
		// The restored machine gets its own injector rebuilt from the
		// serialized stream positions.
		rcfg.Faults = fault.FromState(cfg.Faults.State())
	}
	k2, err := Restore(rcfg, st)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := k2.StateHash(); got != h {
		t.Fatalf("restored state hash %016x, exported %016x", got, h)
	}
	if k2.Tick() != k.Tick() || k2.Boundary() != k.Boundary() {
		t.Fatalf("tick/boundary drifted: %d/%d vs %d/%d", k2.Tick(), k2.Boundary(), k.Tick(), k.Boundary())
	}

	// Divergence check: drive both machines through the identical
	// scripted future and require bit-equal state at every boundary.
	d2 := d.clone(k2)
	for i := 0; i < 60; i++ {
		d.step(t)
		d2.step(t)
		if i%20 == 19 {
			if h1, h2 := k.StateHash(), k2.StateHash(); h1 != h2 {
				t.Fatalf("state diverged %d ticks after restore: %016x vs %016x", i+1, h1, h2)
			}
		}
	}
	if err := k2.CheckInvariants(); err != nil {
		t.Fatalf("restored kernel invariants after continuation: %v", err)
	}
}

func TestSnapshotRoundTripLinux(t *testing.T)       { testSnapshotRoundTrip(t, ModeLinux, false) }
func TestSnapshotRoundTripContiguitas(t *testing.T) { testSnapshotRoundTrip(t, ModeContiguitas, false) }
func TestSnapshotRoundTripWithFaults(t *testing.T)  { testSnapshotRoundTrip(t, ModeContiguitas, true) }

func TestRestoreRejectsFingerprintMismatch(t *testing.T) {
	cfg := snapTestConfig(ModeLinux)
	k := New(cfg)
	k.RunTicks(3)
	st := k.ExportState()

	bad := cfg
	bad.Seed++
	if _, err := Restore(bad, st); err == nil {
		t.Fatal("restore accepted a mismatched seed")
	}
	bad = cfg
	bad.MemBytes *= 2
	if _, err := Restore(bad, st); err == nil {
		t.Fatal("restore accepted a mismatched memory size")
	}
}

func TestRestoreRejectsCorruptedState(t *testing.T) {
	cfg := snapTestConfig(ModeContiguitas)
	k := New(cfg)
	d := &snapDriver{k: k, rng: stats.NewRNG(5)}
	for i := 0; i < 30; i++ {
		d.step(t)
	}
	st := k.ExportState()

	// A frame flipped free in the meta array must be caught by one of
	// the re-derivation cross-checks.
	if len(st.Live) == 0 {
		t.Fatal("no live allocations to corrupt")
	}
	st.Phys.Meta[st.Live[0].PFN] ^= 1 // flagFree
	if _, err := Restore(cfg, st); err == nil {
		t.Fatal("restore accepted a corrupted frame table")
	}
}

func TestStateHashSensitivity(t *testing.T) {
	// Contiguitas with the pressure ladder, so Scan and Pressure are
	// populated and their leaves are walked too.
	cfg := snapTestConfig(ModeContiguitas)
	cfg.HWMover = NewAnalyticMover()
	cfg.Pressure = pressure.DefaultConfig()
	k := New(cfg)
	d := &snapDriver{k: k, rng: stats.NewRNG(11)}
	for i := 0; i < 20; i++ {
		d.step(t)
	}
	st := k.ExportState()
	statetest.RequireCovered(t, st, st.Hash)
}
