package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"contiguitas/internal/kernel"
	"contiguitas/internal/mem"
	"contiguitas/internal/stats"
)

func testKernel(mode kernel.Mode) *kernel.Kernel {
	cfg := kernel.DefaultConfig(mode)
	cfg.MemBytes = 128 << 20
	cfg.InitialUnmovableBytes = 16 << 20
	cfg.MinUnmovableBytes = 8 << 20
	cfg.MaxUnmovableBytes = 64 << 20
	return kernel.New(cfg)
}

func TestRoundTripEncoding(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Kind: KindAlloc, ID: 1, Order: 9, MT: mem.MigrateMovable, Src: mem.SrcUser},
		{Kind: KindPin, ID: 1},
		{Kind: KindTick},
		{Kind: KindUnpin, ID: 1},
		{Kind: KindFree, ID: 1},
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Events() != uint64(len(events)) {
		t.Fatal("event count")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("event %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a trace"))); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream must fail")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Event{Kind: KindTick})
	w.Flush()
	data := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err == nil {
		t.Fatal("truncated record must error")
	}
}

func TestRecordReplayEquivalence(t *testing.T) {
	// Record a random workload on one machine (through the event sink),
	// replay on a fresh machine of the same design: the physical-memory
	// state must match in aggregate (same design, same decisions).
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	k1 := testKernel(kernel.ModeContiguitas)
	rec := Attach(k1, w)
	rng := stats.NewRNG(5)
	var live []kernel.Handle
	for step := 0; step < 3000; step++ {
		switch {
		case rng.Bool(0.5) || len(live) == 0:
			mt := mem.MigrateMovable
			src := mem.SrcUser
			if rng.Bool(0.3) {
				mt = mem.MigrateUnmovable
				src = mem.SrcSlab
			}
			if p, err := k1.Alloc(rng.Intn(3), mt, src); err == nil {
				live = append(live, p)
				if mt == mem.MigrateMovable && rng.Bool(0.2) {
					k1.Pin(p)
				}
			}
		case rng.Bool(0.1):
			k1.AllocPageCache(0, mem.SrcFilesystem)
		case rng.Bool(0.05):
			k1.EndTick()
		default:
			i := rng.Intn(len(live))
			p := live[i]
			if k1.Page(p).Pinned {
				k1.Unpin(p)
			}
			k1.Free(p)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	w.Flush()

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	k2 := testKernel(kernel.ModeContiguitas)
	st, err := Replay(k2, r)
	if err != nil {
		t.Fatal(err)
	}
	if st.AllocFailed != 0 {
		t.Fatalf("replay failed %d allocations on an identical machine", st.AllocFailed)
	}
	s1 := k1.PM().Scan([]int{mem.Order2M})
	s2 := k2.PM().Scan([]int{mem.Order2M})
	if s1.FreePages != s2.FreePages {
		t.Fatalf("free pages differ: %d vs %d", s1.FreePages, s2.FreePages)
	}
	if s1.UnmovableFrames != s2.UnmovableFrames {
		t.Fatalf("unmovable frames differ: %d vs %d", s1.UnmovableFrames, s2.UnmovableFrames)
	}
	if s1.UnmovableBlocks[mem.Order2M] != s2.UnmovableBlocks[mem.Order2M] {
		t.Fatalf("unmovable blocks differ")
	}
}

func TestReplayAcrossDesigns(t *testing.T) {
	// A trace captured on a Linux-layout machine replays on a
	// Contiguitas machine: this is the cross-design experiment the
	// trace format exists for.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	k1 := testKernel(kernel.ModeLinux)
	rec := Attach(k1, w)
	for i := 0; i < 500; i++ {
		mt := mem.MigrateMovable
		src := mem.SrcUser
		if i%5 == 0 {
			mt = mem.MigrateUnmovable
			src = mem.SrcNetworking
		}
		if _, err := k1.Alloc(0, mt, src); err != nil {
			t.Fatal(err)
		}
		if i%100 == 99 {
			k1.EndTick()
		}
	}
	if rec.Err() != nil {
		t.Fatal(rec.Err())
	}
	w.Flush()
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	k2 := testKernel(kernel.ModeContiguitas)
	st, err := Replay(k2, r)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 5 {
		t.Fatalf("ticks = %d", st.Ticks)
	}
	// Confinement: the unmovable allocations must be below the boundary.
	scan := k2.PM().Scan([]int{mem.Order2M})
	limit := k2.Boundary() / mem.PageblockPages
	if scan.UnmovableBlocks[mem.Order2M] > limit {
		t.Fatal("replayed unmovable allocations escaped the region")
	}
}

func TestKindString(t *testing.T) {
	for k := KindAlloc; k <= KindTick; k++ {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must stringify")
	}
}

func TestQuickEventRoundTrip(t *testing.T) {
	f := func(kind uint8, id uint64, order uint8, mt, src uint8) bool {
		e := Event{
			Kind:  Kind(kind % 6),
			ID:    id,
			Order: order % 19,
			MT:    mem.MigrateType(mt % 3),
			Src:   mem.Source(src % 7),
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if w.Write(e) != nil || w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Read()
		return err == nil && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRecordReplayIdenticalAcrossSlotReuse: the kernel recycles a freed
// or reclaimed allocation's slot for a later allocation, and the
// recorder keys live allocations on their handles, whose generation
// differs across reuse. Recording a churn-heavy run (frees, pins, page
// cache under background reclaim, frees of reclaimed handles),
// replaying it into an identical machine and recording the replay must
// reproduce the original event stream byte for byte. A trace does not
// record failed operations, whose slow paths have side effects, so the
// op loop keeps headroom and the test checks that nothing failed.
func TestRecordReplayIdenticalAcrossSlotReuse(t *testing.T) {
	var first bytes.Buffer
	w1, _ := NewWriter(&first)
	k1 := testKernel(kernel.ModeContiguitas)
	rec1 := Attach(k1, w1)
	rng := stats.NewRNG(11)
	headroom := k1.PM().NPages / 4
	var live []kernel.Handle
	for step := 0; step < 60000; step++ {
		switch r := rng.Intn(100); {
		case r < 25 || len(live) == 0:
			mt, src := mem.MigrateMovable, mem.SrcUser
			if rng.Bool(0.2) {
				mt, src = mem.MigrateUnmovable, mem.SrcSlab
			}
			if k1.FreePages()-k1.ReclaimablePages() < headroom {
				continue
			}
			p, err := k1.Alloc(0, mt, src)
			if err != nil {
				t.Fatalf("step %d: alloc failed: %v", step, err)
			}
			live = append(live, p)
			if mt == mem.MigrateMovable && rng.Bool(0.1) {
				if err := k1.Pin(p); err != nil {
					t.Fatalf("step %d: pin failed: %v", step, err)
				}
			}
		case r < 85:
			// Page cache fills the free memory until kswapd recycles
			// it; its handles go stale behind the holder's back.
			p, err := k1.AllocPageCache(0, mem.SrcFilesystem)
			if err != nil {
				t.Fatalf("step %d: page cache alloc failed: %v", step, err)
			}
			live = append(live, p)
		case r < 87:
			k1.EndTick()
		default:
			i := rng.Intn(len(live))
			p := live[i]
			k1.Unpin(p)
			k1.Free(p) // stale for reclaimed page cache: no event
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if k1.ReclaimedPages == 0 {
		t.Fatal("the run never reclaimed page cache; the test needs stale handles")
	}
	if rec1.Err() != nil {
		t.Fatal(rec1.Err())
	}
	w1.Flush()

	var second bytes.Buffer
	w2, _ := NewWriter(&second)
	k2 := testKernel(kernel.ModeContiguitas)
	rec2 := Attach(k2, w2)
	r, err := NewReader(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(k2, r); err != nil {
		t.Fatal(err)
	}
	if rec2.Err() != nil {
		t.Fatal(rec2.Err())
	}
	w2.Flush()
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-recorded replay differs: %d vs %d bytes", first.Len(), second.Len())
	}
}
