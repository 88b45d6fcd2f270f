package dram

import "testing"

func TestRowHitCheaperThanMiss(t *testing.T) {
	d := New(DefaultConfig())
	first := d.Access(0, 0)
	// Same bank (lines interleave across 16 banks) and same row.
	second := d.Access(16*64, first)
	if second-first >= first-0 {
		t.Fatalf("row hit (%d) not cheaper than opening (%d)", second-first, first)
	}
	if d.RowHits != 1 || d.Accesses != 2 {
		t.Fatalf("row hits = %d of %d accesses, want 1 of 2", d.RowHits, d.Accesses)
	}
}

func TestBankConflictQueues(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Two back-to-back accesses to the same bank: second waits.
	a := d.Access(0, 0)
	b := d.Access(cfg.RowBytes*uint64(cfg.Banks), 0) // same bank, other row
	if b <= a {
		t.Fatalf("conflicting access done at %d, first at %d", b, a)
	}
}

func TestBankInterleavingParallel(t *testing.T) {
	d := New(DefaultConfig())
	a := d.Access(0, 0)
	b := d.Access(64, 0) // adjacent line: different bank
	if b > a+1 {
		t.Fatalf("different banks must not serialise: %d vs %d", b, a)
	}
}

func TestNewPanicsWithoutBanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{Banks: 0})
}
