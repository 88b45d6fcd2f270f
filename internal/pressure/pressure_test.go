package pressure

import "testing"

func TestNormalizedFillsDefaults(t *testing.T) {
	d := DefaultConfig()
	n := (&Config{}).Normalized()
	if *n != *d {
		t.Fatalf("zero config normalized to %+v, want defaults %+v", n, d)
	}
	// Overrides survive; only zero fields are filled.
	c := (&Config{ThrottleRounds: 9, ShedEnterPSI: 70}).Normalized()
	if c.ThrottleRounds != 9 || c.ShedEnterPSI != 70 {
		t.Fatalf("overrides clobbered: %+v", c)
	}
	if c.ThrottleBaseCycles != d.ThrottleBaseCycles || c.OOMBackoffTicks != d.OOMBackoffTicks {
		t.Fatalf("defaults not filled: %+v", c)
	}
	// Exit threshold above enter would make the gate flap open/shut on
	// the same sample; Normalized clamps it down to enter.
	c = (&Config{ShedEnterPSI: 40, ShedExitPSI: 80}).Normalized()
	if c.ShedExitPSI != 40 {
		t.Fatalf("exit %v not clamped to enter %v", c.ShedExitPSI, c.ShedEnterPSI)
	}
}

func TestThrottleStallDoublesAndCaps(t *testing.T) {
	c := &Config{ThrottleBaseCycles: 100, ThrottleCeilingCycles: 1000}
	spent := uint64(0)
	var got []uint64
	for round := 0; ; round++ {
		s := c.ThrottleStall(round, spent)
		if s == 0 {
			break
		}
		got = append(got, s)
		spent += s
	}
	// 100, 200, 400, then 300 (clamped to the 1000 ceiling), then 0.
	want := []uint64{100, 200, 400, 300}
	if len(got) != len(want) {
		t.Fatalf("stall sequence %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stall sequence %v, want %v", got, want)
		}
	}
	if spent != c.ThrottleCeilingCycles {
		t.Fatalf("total spent %d != ceiling %d", spent, c.ThrottleCeilingCycles)
	}
	if s := c.ThrottleStall(10, spent); s != 0 {
		t.Fatalf("stall after ceiling = %d, want 0", s)
	}
}

func TestGateHysteresis(t *testing.T) {
	var g Gate
	const enter, exit = 85, 55
	if g.Shedding() {
		t.Fatal("zero gate shedding")
	}
	// Below enter: no transition.
	if g.Update(1, 80, enter, exit) || g.Shedding() {
		t.Fatal("gate tripped below enter threshold")
	}
	// Cross enter: sheds.
	if !g.Update(2, 90, enter, exit) || !g.Shedding() || g.Since() != 2 {
		t.Fatalf("gate did not trip at enter: %+v", g)
	}
	// Inside the band: stays shedding (hysteresis, no flap).
	if g.Update(3, 70, enter, exit) || !g.Shedding() {
		t.Fatal("gate reopened inside hysteresis band")
	}
	// Re-crossing enter while already shedding is not a transition.
	if g.Update(4, 95, enter, exit) {
		t.Fatal("spurious transition while already shedding")
	}
	// Below exit: reopens.
	if !g.Update(5, 50, enter, exit) || g.Shedding() || g.Since() != 5 {
		t.Fatalf("gate did not reopen below exit: %+v", g)
	}
}

func TestGateStateRoundTrip(t *testing.T) {
	var g Gate
	g.Update(7, 99, 85, 55)
	var h Gate
	h.SetState(g.State())
	if h.Shedding() != g.Shedding() || h.Since() != g.Since() {
		t.Fatalf("round trip lost state: %+v vs %+v", h.State(), g.State())
	}
}

func TestBadness(t *testing.T) {
	const total = 10_000
	// Pure size: bigger pool is more killable.
	if Badness(500, total, 0) >= Badness(900, total, 0) {
		t.Fatal("badness not monotone in pages")
	}
	// A -500 adj (kernel-ish pool) subtracts half of total memory:
	// such a pool is only killable once it dwarfs everything else.
	if b := Badness(900, total, -500); b != 900-5000 {
		t.Fatalf("adj badness = %d, want %d", b, 900-5000)
	}
	if Badness(6000, total, -500) <= 0 {
		t.Fatal("huge pool with negative adj should still score positive")
	}
}

func TestEscalationProfile(t *testing.T) {
	var e Escalation
	if e.Hits != [NumRungs]uint64{} || !e.Ordered() {
		t.Fatalf("zero escalation: %+v ordered=%v", e, e.Ordered())
	}
	// Reclaim/compact fire early and routinely — never affect ordering.
	e.Note(RungReclaim, 0)
	e.Note(RungCompact, 1)
	e.Note(RungThrottle, 100)
	e.Note(RungResize, 120)
	e.Note(RungOOM, 150)
	e.Note(RungThrottle, 200) // later revisits don't disturb FirstTick
	if e.Hits[RungOOM] != 1 {
		t.Fatalf("oom hits %d, want 1", e.Hits[RungOOM])
	}
	if !e.Ordered() {
		t.Fatalf("monotone profile reported unordered: %+v", e)
	}
	if e.Hits[RungThrottle] != 2 || e.FirstTick[RungThrottle] != 101 {
		t.Fatalf("throttle accounting: %+v", e)
	}

	// OOM before throttle: out of order.
	var bad Escalation
	bad.Note(RungOOM, 10)
	bad.Note(RungThrottle, 20)
	if bad.Ordered() {
		t.Fatalf("inverted profile reported ordered: %+v", bad)
	}

	// A skipped rung is fine (e.g. unmovable requests expand instead
	// of throttling first).
	var skip Escalation
	skip.Note(RungThrottle, 5)
	skip.Note(RungOOM, 9)
	if !skip.Ordered() {
		t.Fatalf("gap profile reported unordered: %+v", skip)
	}
}

func TestRungString(t *testing.T) {
	want := []string{"fast", "reclaim", "compact", "throttle", "resize", "oom"}
	for r := 0; r < NumRungs; r++ {
		if Rung(r).String() != want[r] {
			t.Fatalf("Rung(%d) = %q, want %q", r, Rung(r), want[r])
		}
	}
	if Rung(200).String() != "rung?" {
		t.Fatal("out-of-range rung string")
	}
}
