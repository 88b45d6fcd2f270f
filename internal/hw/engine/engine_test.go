package engine

import "testing"

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // tie: insertion order
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %d", e.Now())
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var at uint64
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("after fired at %d, want 150", at)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := New()
	fired := false
	e.At(100, func() {
		e.At(10, func() { fired = true }) // in the past: clamp to now
	})
	e.Run()
	if !fired || e.Now() != 100 {
		t.Fatalf("fired=%v now=%d", fired, e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := uint64(1); i <= 10; i++ {
		e.At(i*10, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %d, want 50", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestRunUntilAdvancesClockWhenDrained(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("now = %d", e.Now())
	}
}
