package mem

import (
	"testing"
)

// FuzzBuddyAllocFree drives a buddy allocator with an arbitrary
// alloc/free op stream and checks the structural invariants after
// every few ops. The allocator must never panic and never corrupt its
// free lists, whatever interleaving (including frees of arbitrary —
// possibly interior or already-free — pfns) the fuzzer invents. The
// first byte picks the allocation policy and whether fallback stealing
// is on; under an ordered policy every allocation served from the
// class's own lists must return the block a reference min/max over
// those lists predicts.
func FuzzBuddyAllocFree(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x02, 0x93, 0x44, 0xff})
	f.Add([]byte{0x80, 0x80, 0x80, 0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x01, 0x80, 0x02, 0x81, 0x00, 0x13, 0x82})
	f.Add([]byte{0x02, 0x00, 0x10, 0x00, 0x81, 0x01, 0x80, 0x00, 0x23, 0xc5})
	f.Add([]byte{0x06, 0x00, 0x00, 0x00, 0x80, 0x82, 0x00, 0x00, 0x81, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		policy, fallback := PolicyLIFO, true
		if len(data) > 0 {
			policy = AllocPolicy(data[0] % 3)
			fallback = data[0]&4 == 0
			data = data[1:]
		}
		pm := NewPhysMem(16 << 20) // 4096 pages
		b := NewBuddy(pm, 0, pm.NPages, policy, fallback, MigrateMovable)

		var live []uint64
		for i, op := range data {
			if op&0x80 == 0 {
				// Alloc: low bits pick order and migratetype.
				order := int(op) % 10
				mt := MigrateType(op>>4) % NumMigrateTypes
				want, check := orderedPrediction(b, order, mt)
				pfn, ok := b.Alloc(order, mt, SrcUser)
				if check && (!ok || pfn != want) {
					t.Fatalf("op %d: %v alloc order %d mt %d = (%d, %v), reference predicts %d",
						i, policy, order, mt, pfn, ok, want)
				}
				if ok {
					live = append(live, pfn)
				}
			} else if op&0x40 == 0 && len(live) > 0 {
				// Free a tracked allocation head — must succeed exactly once.
				idx := int(op&0x3f) % len(live)
				pfn := live[idx]
				live = append(live[:idx], live[idx+1:]...)
				if err := b.Free(pfn); err != nil {
					t.Fatalf("op %d: free of live head %d: %v", i, pfn, err)
				}
			} else {
				// Free an arbitrary pfn — interior pages, free pages, and
				// out-of-range pfns must all be rejected with an error, never
				// a panic or silent corruption. Skip tracked heads: those are
				// the one class of pfn this Free would legitimately release,
				// which would desync the drain below.
				pfn := uint64(op&0x3f) * 67 % pm.NPages
				tracked := false
				for _, h := range live {
					if h == pfn {
						tracked = true
						break
					}
				}
				if !tracked {
					if err := b.Free(pfn); err == nil {
						t.Fatalf("op %d: free of untracked pfn %d succeeded", i, pfn)
					}
				}
			}
			if i%16 == 15 {
				if err := b.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("final: %v", err)
		}
		for _, pfn := range live {
			if err := b.Free(pfn); err != nil {
				t.Fatalf("drain free %d: %v", pfn, err)
			}
		}
		if err := b.CheckInvariants(); err != nil {
			t.Fatalf("after drain: %v", err)
		}
		if b.FreePages() != b.Pages() {
			t.Fatalf("after drain: %d of %d pages free", b.FreePages(), b.Pages())
		}
	})
}

// orderedPrediction returns the block an ordered-policy Alloc of
// (order, mt) must return when mt's own lists can serve it: the lowest
// (PolicyLowestPFN) or highest (PolicyHighestPFN) head of the smallest
// non-empty qualifying order, split down to order from the bottom or
// the top respectively. It is computed by a linear scan of the list
// contents, independently of the list's pop. check is false under
// PolicyLIFO and when the request would need fallback stealing.
func orderedPrediction(b *Buddy, order int, mt MigrateType) (want uint64, check bool) {
	if b.policy == PolicyLIFO {
		return 0, false
	}
	for o := order; o <= MaxOrder; o++ {
		heads := b.lists[o][mt].appendTo(nil)
		if len(heads) == 0 {
			continue
		}
		best := heads[0]
		for _, h := range heads[1:] {
			if (b.policy == PolicyLowestPFN) == (h < best) {
				best = h
			}
		}
		if b.policy == PolicyHighestPFN {
			best += OrderPages(o) - OrderPages(order)
		}
		return best, true
	}
	return 0, false
}
