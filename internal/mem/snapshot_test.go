package mem

import (
	"errors"
	"slices"
	"testing"
)

// fragmentedOrdered builds an ordered-policy region whose order-0
// movable list holds many scattered heads: every other frame of the low
// quarter is allocated, so each free odd frame is its own head.
func fragmentedOrdered(t *testing.T, policy AllocPolicy) (*PhysMem, *Buddy) {
	t.Helper()
	pm, b := newTestBuddy(t, 16*testMB, policy, false)
	var all []uint64
	for {
		pfn, ok := b.Alloc(Order4K, MigrateMovable, SrcUser)
		if !ok {
			break
		}
		all = append(all, pfn)
	}
	for _, pfn := range all {
		if pfn%2 == 1 && pfn < pm.NPages/4 {
			if err := b.Free(pfn); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(b.lists[Order4K][MigrateMovable].appendTo(nil)); n < 100 {
		t.Fatalf("setup left %d order-0 heads, want many", n)
	}
	return pm, b
}

func TestOrderedListExportAscendingAndRoundTrip(t *testing.T) {
	for _, policy := range []AllocPolicy{PolicyLowestPFN, PolicyHighestPFN} {
		pm, b := fragmentedOrdered(t, policy)
		st := b.ExportState()
		heads := st.Lists[Order4K][MigrateMovable]
		if !slices.IsSorted(heads) {
			t.Fatalf("policy %d: exported ordered list not ascending", policy)
		}
		pm2, err := RestorePhysMem(pm.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		b2, err := RestoreBuddy(pm2, st)
		if err != nil {
			t.Fatalf("policy %d: restore: %v", policy, err)
		}
		if err := b2.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if err := pm2.VerifyFlIdxWitness(pm.ExportState().FlIdx); err != nil {
			t.Fatal(err)
		}
		// Both copies must now allocate identically.
		for i := 0; i < 64; i++ {
			p1, ok1 := b.Alloc(Order4K, MigrateMovable, SrcUser)
			p2, ok2 := b2.Alloc(Order4K, MigrateMovable, SrcUser)
			if p1 != p2 || ok1 != ok2 {
				t.Fatalf("policy %d alloc %d: original (%d,%v), restored (%d,%v)", policy, i, p1, ok1, p2, ok2)
			}
		}
	}
}

func TestRestoreBuddyRejectsCorruptOrderedList(t *testing.T) {
	pm, b := fragmentedOrdered(t, PolicyHighestPFN)
	good := b.ExportState()
	heads := good.Lists[Order4K][MigrateMovable]

	// allocatedFrame is a frame the region holds allocated, which the
	// frame table must refuse as a free-list entry.
	allocatedFrame := heads[0] - 1

	cases := []struct {
		name   string
		mutate func(l []uint64) []uint64
	}{
		{"unsorted", func(l []uint64) []uint64 { l[1], l[2] = l[2], l[1]; return l }},
		{"duplicate", func(l []uint64) []uint64 { l[2] = l[1]; return l }},
		{"frame-table disagrees", func(l []uint64) []uint64 { l[0] = allocatedFrame; return l }},
	}
	for _, tc := range cases {
		st := good
		st.Lists[Order4K][MigrateMovable] = tc.mutate(slices.Clone(heads))
		pm2, err := RestorePhysMem(pm.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		_, err = RestoreBuddy(pm2, st)
		if !errors.Is(err, ErrBadFreeList) {
			t.Fatalf("%s: RestoreBuddy = %v, want ErrBadFreeList", tc.name, err)
		}
	}
}
