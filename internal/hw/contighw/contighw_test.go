package contighw

import (
	"math"
	"testing"

	"contiguitas/internal/hw"
	"contiguitas/internal/hw/cache"
	"contiguitas/internal/hw/dram"
	"contiguitas/internal/hw/engine"
	"contiguitas/internal/stats"
)

func newRig(mode Mode) (*Engine, *cache.Hierarchy, *engine.Engine) {
	p := hw.DefaultParams()
	h := cache.New(p, dram.New(dram.DefaultConfig()))
	eng := engine.New()
	e := New(DefaultConfig(mode), h, eng)
	return e, h, eng
}

// writePage stamps every line of a page with a recognisable value.
func writePage(h *cache.Hierarchy, ppn uint64, base uint64) {
	for i := 0; i < hw.LinesPerPage; i++ {
		h.WriteLLC(hw.LineOfPage(ppn, i), base+uint64(i))
	}
}

func TestMigrationCopiesWholePage(t *testing.T) {
	for _, mode := range []Mode{Noncacheable, Cacheable} {
		e, h, eng := newRig(mode)
		writePage(h, 100, 1000)
		done := false
		d := Descriptor{Op: OpMigrate, Src: 100, Dst: 200, StartCopy: true,
			OnComplete: func() { done = true }}
		if _, err := e.Submit(d); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if !done {
			t.Fatalf("%v: completion callback not fired", mode)
		}
		ent := e.Lookup(100)
		if ent == nil || !ent.Completion || ent.Ptr() != hw.LinesPerPage {
			t.Fatalf("%v: entry state wrong: %+v", mode, ent)
		}
		for i := 0; i < hw.LinesPerPage; i++ {
			v, _, _ := h.CollectAndInvalidate(hw.LineOfPage(200, i))
			if v != 1000+uint64(i) {
				t.Fatalf("%v: dst line %d = %d, want %d", mode, i, v, 1000+uint64(i))
			}
		}
		if _, err := e.Submit(Descriptor{Op: OpClear, Src: 100}); err != nil {
			t.Fatal(err)
		}
		if e.Lookup(100) != nil || e.TableOccupancy() != 0 {
			t.Fatal("clear must remove the entry")
		}
	}
}

func TestRedirectionDuringMigration(t *testing.T) {
	e, h, eng := newRig(Noncacheable)
	writePage(h, 100, 5000)
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 100, Dst: 200, StartCopy: true}); err != nil {
		t.Fatal(err)
	}
	// Interleave accesses with copy progress: every few engine steps,
	// read via the source mapping; values must always be current.
	for step := 0; step < 100; step++ {
		eng.RunUntil(eng.Now() + 100)
		off := step % hw.LinesPerPage
		pa := (uint64(100) << hw.PageShift) + uint64(off)*hw.LineBytes
		v, _ := h.Access(step%8, pa, false, 0, eng.Now())
		if v != 5000+uint64(off) {
			t.Fatalf("step %d: read %d via src mapping, want %d", step, v, 5000+uint64(off))
		}
	}
	eng.Run()
}

// TestMigrationLinearizability is the core correctness property of
// Contiguitas-HW: while a page migrates, cores read and write it through
// BOTH mappings (stale TLBs keep using the source PPN), and every read
// must observe the latest write to its line. Runs for both design
// points against a reference model.
func TestMigrationLinearizability(t *testing.T) {
	for _, mode := range []Mode{Noncacheable, Cacheable} {
		for seed := uint64(1); seed <= 5; seed++ {
			testLinearizability(t, mode, seed)
		}
	}
}

func testLinearizability(t *testing.T, mode Mode, seed uint64) {
	t.Helper()
	e, h, eng := newRig(mode)
	rng := stats.NewRNG(seed)
	ref := make([]uint64, hw.LinesPerPage)
	for i := 0; i < hw.LinesPerPage; i++ {
		ref[i] = 9000 + uint64(i)
		h.WriteLLC(hw.LineOfPage(300, i), ref[i])
	}
	// In cacheable mode, pre-warm some private copies under the source
	// mapping (the state the single-mapping invariant must handle).
	if mode == Cacheable {
		for i := 0; i < 16; i++ {
			pa := (uint64(300) << hw.PageShift) + uint64(i)*hw.LineBytes
			h.Access(i%8, pa, false, 0, 0)
		}
	}
	start := mode == Noncacheable
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 300, Dst: 400, StartCopy: start}); err != nil {
		t.Fatal(err)
	}
	if !start {
		// Cacheable flow: redirection phase first, then the copy.
		eng.After(500, func() {
			if _, err := e.Submit(Descriptor{Op: OpStartCopy, Src: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for step := 0; step < 600; step++ {
		eng.RunUntil(eng.Now() + uint64(rng.Intn(40)))
		off := rng.Intn(hw.LinesPerPage)
		// Half the cores still use the stale (source) mapping, half the
		// new (destination) mapping — exactly what lazy invalidation
		// produces.
		ppn := uint64(300)
		if rng.Bool(0.5) {
			ppn = 400
		}
		// In cacheable phase A only: the paper's flow has the OS flip
		// the PTE immediately, so both mappings occur there too.
		pa := (ppn << hw.PageShift) + uint64(off)*hw.LineBytes
		core := rng.Intn(8)
		if rng.Bool(0.35) {
			val := rng.Uint64()
			h.Access(core, pa, true, val, eng.Now())
			ref[off] = val
		} else {
			v, _ := h.Access(core, pa, false, 0, eng.Now())
			if v != ref[off] {
				t.Fatalf("mode=%v seed=%d step=%d: line %d read %d via ppn %d, want %d",
					mode, seed, step, off, v, ppn, ref[off])
			}
		}
	}
	eng.Run()
	// After completion every line must be readable at the destination
	// with its final value.
	for i := 0; i < hw.LinesPerPage; i++ {
		pa := (uint64(400) << hw.PageShift) + uint64(i)*hw.LineBytes
		v, _ := h.Access(i%8, pa, false, 0, eng.Now())
		if v != ref[i] {
			t.Fatalf("mode=%v seed=%d: final line %d = %d, want %d", mode, seed, i, v, ref[i])
		}
	}
}

func TestCacheableSkipsModifiedDestination(t *testing.T) {
	e, h, eng := newRig(Cacheable)
	writePage(h, 500, 100)
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 500, Dst: 600}); err != nil {
		t.Fatal(err)
	}
	// Phase A: a core writes line 3 via the destination mapping.
	pa := (uint64(600) << hw.PageShift) + 3*hw.LineBytes
	h.Access(0, pa, true, 4242, 0)
	if _, err := e.Submit(Descriptor{Op: OpStartCopy, Src: 500}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if e.LinesSkippedModified == 0 {
		t.Fatal("modified destination line must be skipped by the copy")
	}
	v, _ := h.Access(1, pa, false, 0, eng.Now())
	if v != 4242 {
		t.Fatalf("skipped line lost its data: %d", v)
	}
}

func TestNoncacheableBypassesPrivateCaches(t *testing.T) {
	e, h, eng := newRig(Noncacheable)
	writePage(h, 700, 1)
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 700, Dst: 800, StartCopy: true}); err != nil {
		t.Fatal(err)
	}
	pa := uint64(700) << hw.PageShift
	h.Access(0, pa, false, 0, 0)
	if h.HasPrivate(hw.LineOfPage(700, 0)) || h.HasPrivate(hw.LineOfPage(800, 0)) {
		t.Fatal("lines under migration must not be cached privately")
	}
	eng.Run()
	if _, err := e.Submit(Descriptor{Op: OpClear, Src: 700}); err != nil {
		t.Fatal(err)
	}
	// After the migration ends, caching resumes.
	h.Access(0, (uint64(800) << hw.PageShift), false, 0, eng.Now())
	if !h.HasPrivate(hw.LineOfPage(800, 0)) {
		t.Fatal("caching must resume after Clear")
	}
}

func TestTableCapacity(t *testing.T) {
	e, _, _ := newRig(Noncacheable)
	for i := uint64(0); i < 16; i++ {
		if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 1000 + i, Dst: 2000 + i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 5000, Dst: 6000}); err != ErrTableFull {
		t.Fatalf("17th migration: err = %v, want ErrTableFull", err)
	}
	if _, err := e.Submit(Descriptor{Op: OpClear, Src: 1000}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 5000, Dst: 6000}); err != nil {
		t.Fatalf("after clear: %v", err)
	}
}

func TestDuplicateMigrationRejected(t *testing.T) {
	e, _, _ := newRig(Noncacheable)
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 10, Dst: 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 10, Dst: 30}); err != ErrBusy {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 99, Dst: 20}); err != ErrBusy {
		t.Fatalf("dst reuse: err = %v, want ErrBusy", err)
	}
	if _, err := e.Submit(Descriptor{Op: OpClear, Src: 12345}); err != ErrNoEntry {
		t.Fatalf("clear unknown: err = %v, want ErrNoEntry", err)
	}
}

func TestChainedVsParallelSlices(t *testing.T) {
	// The ablation of §3.3: parallel slices finish the copy faster than
	// the chained handoff the paper chooses.
	durations := map[bool]uint64{}
	for _, parallel := range []bool{false, true} {
		p := hw.DefaultParams()
		h := cache.New(p, dram.New(dram.DefaultConfig()))
		eng := engine.New()
		cfg := DefaultConfig(Noncacheable)
		cfg.ParallelSlices = parallel
		e := New(cfg, h, eng)
		writePage(h, 100, 0)
		var doneAt uint64
		if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 100, Dst: 200, StartCopy: true,
			OnComplete: func() { doneAt = eng.Now() }}); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		durations[parallel] = doneAt
	}
	if durations[true] >= durations[false] {
		t.Fatalf("parallel (%d) must beat chained (%d)", durations[true], durations[false])
	}
}

func TestMigrationDurationMatchesPaper(t *testing.T) {
	// §5.3: a 4KB migration costs ~2 µs (≈4000 cycles at 2 GHz).
	e, h, eng := newRig(Noncacheable)
	writePage(h, 100, 0)
	var doneAt uint64
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 100, Dst: 200, StartCopy: true,
		OnComplete: func() { doneAt = eng.Now() }}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	us := float64(doneAt) / 2000 // 2 GHz -> cycles per µs
	if us < 1 || us > 4 {
		t.Fatalf("4KB migration took %.2f µs, want ~2", us)
	}
}

func TestAreaModelMatchesPaper(t *testing.T) {
	m := DefaultAreaModel()
	if math.Abs(m.AreaMM2()-0.0038) > 0.0004 {
		t.Fatalf("area = %f mm², want ~0.0038", m.AreaMM2())
	}
	if math.Abs(m.EnergyNJPerAccess()-0.0017) > 0.0002 {
		t.Fatalf("energy = %f nJ, want ~0.0017", m.EnergyNJPerAccess())
	}
	if math.Abs(m.LeakageMW()-0.64) > 0.06 {
		t.Fatalf("leakage = %f mW, want ~0.64", m.LeakageMW())
	}
	frac := m.FractionOfCore()
	if frac < 0.00010 || frac > 0.00020 {
		t.Fatalf("fraction of core = %f, want ~0.00014 (0.014%%)", frac)
	}
}

func TestModeString(t *testing.T) {
	if Noncacheable.String() != "noncacheable" || Cacheable.String() != "cacheable" {
		t.Fatal("mode names")
	}
}

func TestVariableSizeBufferMigration(t *testing.T) {
	// §3.3 "Variable Buffer Sizes": one metadata entry covers a whole
	// multi-page device buffer. Migrate a 64KB (16-page) buffer and
	// interleave accesses through both mappings.
	e, h, eng := newRig(Noncacheable)
	const pages = 16
	ref := make(map[int]uint64)
	for pg := 0; pg < pages; pg++ {
		for i := 0; i < hw.LinesPerPage; i++ {
			v := uint64(pg*1000 + i)
			h.WriteLLC(hw.LineOfPage(uint64(3000+pg), i), v)
			ref[pg*hw.LinesPerPage+i] = v
		}
	}
	done := false
	if _, err := e.Submit(Descriptor{
		Op: OpMigrate, Src: 3000, Dst: 4000, SizePages: pages,
		StartCopy: true, OnComplete: func() { done = true },
	}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(77)
	for step := 0; step < 400; step++ {
		eng.RunUntil(eng.Now() + uint64(rng.Intn(200)))
		pg := rng.Intn(pages)
		off := rng.Intn(hw.LinesPerPage)
		base := uint64(3000)
		if rng.Bool(0.5) {
			base = 4000
		}
		pa := (base+uint64(pg))<<hw.PageShift + uint64(off)*hw.LineBytes
		if rng.Bool(0.3) {
			v := rng.Uint64()
			h.Access(rng.Intn(8), pa, true, v, eng.Now())
			ref[pg*hw.LinesPerPage+off] = v
		} else {
			v, _ := h.Access(rng.Intn(8), pa, false, 0, eng.Now())
			if v != ref[pg*hw.LinesPerPage+off] {
				t.Fatalf("step %d: page %d line %d read %d, want %d",
					step, pg, off, v, ref[pg*hw.LinesPerPage+off])
			}
		}
	}
	eng.Run()
	if !done {
		t.Fatal("range migration never completed")
	}
	ent := e.Lookup(3005) // any covered PPN resolves to the entry
	if ent == nil || ent.Ptr() != pages*hw.LinesPerPage {
		t.Fatalf("entry state: %+v", ent)
	}
	if _, err := e.Submit(Descriptor{Op: OpClear, Src: 3000}); err != nil {
		t.Fatal(err)
	}
	for pg := 0; pg < pages; pg++ {
		for i := 0; i < hw.LinesPerPage; i++ {
			pa := uint64(4000+pg)<<hw.PageShift + uint64(i)*hw.LineBytes
			v, _ := h.Access(0, pa, false, 0, eng.Now())
			if v != ref[pg*hw.LinesPerPage+i] {
				t.Fatalf("final page %d line %d = %d", pg, i, v)
			}
		}
	}
}

func TestVariableSizeRejectsOverlap(t *testing.T) {
	e, _, _ := newRig(Noncacheable)
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 100, Dst: 200, SizePages: 8}); err != nil {
		t.Fatal(err)
	}
	// Any overlap with the covered ranges is busy.
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 104, Dst: 300}); err != ErrBusy {
		t.Fatalf("src overlap: %v", err)
	}
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 400, Dst: 207}); err != ErrBusy {
		t.Fatalf("dst overlap: %v", err)
	}
	if _, err := e.Submit(Descriptor{Op: OpMigrate, Src: 400, Dst: 500}); err != nil {
		t.Fatalf("disjoint must be accepted: %v", err)
	}
}
