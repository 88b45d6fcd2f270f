package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"contiguitas/internal/fleet"
	"contiguitas/internal/resultcache"
)

// tinySpec is sized like the fleet package's supervision tests: enough
// servers for several shards, small enough that a campaign finishes in
// well under a second.
func tinySpec() Spec {
	return Spec{
		Name:     "tiny",
		Servers:  12,
		MemsMiB:  []uint64{64},
		TicksMin: 20,
		TicksMax: 60,
		Seed:     5,
		Shards:   4,
	}
}

func fastSched(st Store) *Scheduler {
	return NewScheduler(SchedulerConfig{
		Store:       st,
		Workers:     1,
		QueueDepth:  4,
		BackoffBase: time.Microsecond,
		BackoffCap:  time.Millisecond,
	})
}

// waitTerminal polls until the campaign reaches a terminal state.
func waitTerminal(t *testing.T, s *Scheduler, id string) *Campaign {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		c, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if c.State.Terminal() {
			return c
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("campaign never reached a terminal state")
	return nil
}

// referenceMerged computes what a campaign's merged result must be, by
// running each cell directly through the plain fleet engine — no
// scheduler, no store, no supervision stress.
func referenceMerged(sp Spec) []byte {
	sp = sp.normalized()
	var out bytes.Buffer
	for _, cell := range sp.Cells() {
		data := fleet.CanonicalBytes(fleet.Run(sp.fleetConfig(cell)))
		fmt.Fprintf(&out, "cell design=%s mem_mib=%d jitter=%g bytes=%d\n",
			cell.Design, cell.MemMiB, cell.Jitter, len(data))
		out.Write(data)
	}
	return out.Bytes()
}

// TestSubmitRunsToCanonicalResult: the end-to-end happy path on both
// backends — submit, run, and the merged result is byte-identical to a
// direct unsupervised computation of the same spec.
func TestSubmitRunsToCanonicalResult(t *testing.T) {
	want := referenceMerged(tinySpec())
	for name, open := range storeBackends(t) {
		t.Run(name, func(t *testing.T) {
			s := fastSched(open(t))
			s.Start()
			defer s.Drain()

			c, created, err := s.Submit(tinySpec(), "happy")
			if err != nil || !created {
				t.Fatalf("Submit = created=%v err=%v", created, err)
			}
			fin := waitTerminal(t, s, c.ID)
			if fin.State != StateDone {
				t.Fatalf("campaign %s: %s", fin.State, fin.Error)
			}
			if fin.CellsDone != fin.Cells || fin.ResultDigest == "" {
				t.Fatalf("done record incomplete: %+v", fin)
			}
			got, err := s.Result(c.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("service result (%d bytes) != direct fleet run (%d bytes)", len(got), len(want))
			}
			// The record's durable Put lands an instant before the counter
			// increment; poll briefly instead of racing the worker.
			for end := time.Now().Add(time.Second); s.Stats().Completed != 1 && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
			}
			if s.Stats().Completed != 1 {
				t.Fatalf("stats: %+v", s.Stats())
			}
		})
	}
}

// TestSweepGridMergesAllCells: a multi-cell grid runs every cell in
// canonical order and merges them deterministically.
func TestSweepGridMergesAllCells(t *testing.T) {
	sp := tinySpec()
	sp.Designs = []string{"linux", "contiguitas"}
	sp.Jitters = []float64{0, 0.2}
	want := referenceMerged(sp)

	s := fastSched(NewMemory())
	s.Start()
	defer s.Drain()
	c, _, err := s.Submit(sp, "grid")
	if err != nil {
		t.Fatal(err)
	}
	if c.Cells != 4 {
		t.Fatalf("grid expanded to %d cells, want 4", c.Cells)
	}
	fin := waitTerminal(t, s, c.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign %s: %s", fin.State, fin.Error)
	}
	got, err := s.Result(c.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep result diverged from direct per-cell runs")
	}
}

// TestCachedCampaignMatchesDirectRun: a memory-store campaign over a
// result cache journals cells byte-identical to a direct RunSupervised
// run, and a second scheduler over the same cache serves every shard
// from it with the same bytes.
func TestCachedCampaignMatchesDirectRun(t *testing.T) {
	sp := tinySpec()
	sp.Designs = []string{"linux", "contiguitas"}
	norm := sp.normalized()
	var want [][]byte
	for _, cell := range norm.Cells() {
		res, err := fleet.RunSupervised(context.Background(), fleet.SupervisedConfig{Fleet: norm.fleetConfig(cell)})
		if err != nil || !res.Report.Complete {
			t.Fatalf("direct run: %v", err)
		}
		want = append(want, fleet.CanonicalBytes(res.Study))
	}

	cache := resultcache.NewDir(t.TempDir(), fleet.CacheSchemaVersion)
	run := func() Stats {
		st := NewMemory()
		s := NewScheduler(SchedulerConfig{Store: st, Cache: cache})
		s.Start()
		defer s.Drain()
		c, _, err := s.Submit(sp, "cached")
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitTerminal(t, s, c.ID); fin.State != StateDone {
			t.Fatalf("campaign %s: %s", fin.State, fin.Error)
		}
		for i, w := range want {
			got, ok, err := st.GetCell(c.ID, i)
			if err != nil || !ok || !bytes.Equal(got, w) {
				t.Fatalf("cell %d: ok=%v err=%v, bytes differ from the direct run", i, ok, err)
			}
		}
		return s.Stats()
	}
	if cold := run(); cold.CacheHits != 0 || cold.CacheMisses == 0 {
		t.Fatalf("cold stats: %+v", cold)
	}
	if warm := run(); warm.CacheMisses != 0 || warm.CacheHits == 0 || warm.CacheRejects != 0 {
		t.Fatalf("warm stats: %+v", warm)
	}
}

// TestIdempotentResubmit: same key + same spec dedupes to the same
// campaign (even after it finished); same key + different spec is a
// typed conflict.
func TestIdempotentResubmit(t *testing.T) {
	s := fastSched(NewMemory())
	s.Start()
	defer s.Drain()

	first, created, err := s.Submit(tinySpec(), "idem")
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	again, created, err := s.Submit(tinySpec(), "idem")
	if err != nil || created {
		t.Fatalf("resubmit: created=%v err=%v, want dedupe", created, err)
	}
	if again.ID != first.ID {
		t.Fatalf("dedupe returned a different campaign: %s != %s", again.ID, first.ID)
	}

	other := tinySpec()
	other.Seed++
	if _, _, err := s.Submit(other, "idem"); !errors.Is(err, ErrKeyReuse) {
		t.Fatalf("key reuse with changed spec = %v, want ErrKeyReuse", err)
	}

	waitTerminal(t, s, first.ID)
	done, created, err := s.Submit(tinySpec(), "idem")
	if err != nil || created {
		t.Fatalf("resubmit after done: created=%v err=%v", created, err)
	}
	if done.State != StateDone {
		t.Fatalf("resubmit after done returned state %s", done.State)
	}
	if s.Stats().Deduped != 2 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// TestSubmitValidation: bad specs and missing keys are typed 400-class
// errors and never reach the store.
func TestSubmitValidation(t *testing.T) {
	s := fastSched(NewMemory())
	if _, _, err := s.Submit(tinySpec(), ""); !errors.Is(err, ErrNoKey) {
		t.Fatalf("no key = %v, want ErrNoKey", err)
	}
	bad := tinySpec()
	bad.Designs = []string{"windows"}
	if _, _, err := s.Submit(bad, "k"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad design = %v, want ErrBadSpec", err)
	}
	bad = tinySpec()
	bad.TicksMin, bad.TicksMax = 50, 20
	if _, _, err := s.Submit(bad, "k"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("inverted ticks = %v, want ErrBadSpec", err)
	}
	bad = tinySpec()
	bad.Jitters = []float64{1.5}
	if _, _, err := s.Submit(bad, "k"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("jitter 1.5 = %v, want ErrBadSpec", err)
	}
	if list, _ := s.List(); len(list) != 0 {
		t.Fatalf("rejected submits reached the store: %d records", len(list))
	}
}

// TestSubmitRejectsUnbootableMachines: admission applies the kernel's
// own boot rule to every design × memory cell, so a machine the fleet
// could not lay out is a 400, not a shard that panics and retries.
// Contiguitas sizes its unmovable region at MemBytes/16, which rounds
// down to no 2 MB pageblock below 32 MiB.
func TestSubmitRejectsUnbootableMachines(t *testing.T) {
	cases := []struct {
		design string
		mib    uint64
		ok     bool
	}{
		{"linux", 16, true},
		{"linux", 17, false}, // not a whole number of 2 MB pageblocks
		{"contiguitas", 16, false},
		{"contiguitas", 24, false},
		{"contiguitas", 31, false},
		{"contiguitas", 32, true},
		{"contiguitas", 64, true},
	}
	for _, tc := range cases {
		sp := tinySpec()
		sp.Designs = []string{tc.design}
		sp.MemsMiB = []uint64{tc.mib}
		err := sp.normalized().validate()
		if tc.ok && err != nil {
			t.Errorf("%s %d MiB: rejected: %v", tc.design, tc.mib, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s %d MiB: validate = %v, want ErrBadSpec", tc.design, tc.mib, err)
		}
	}
	// A mixed grid is rejected whole, through Submit.
	s := fastSched(NewMemory())
	sp := tinySpec()
	sp.Designs = []string{"linux", "contiguitas"}
	sp.MemsMiB = []uint64{16, 64}
	if _, _, err := s.Submit(sp, "k"); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("contiguitas at 16 MiB in a grid = %v, want ErrBadSpec", err)
	}
}

// TestSpecCostBudget: admission bounds the product servers × cells ×
// mem_mib × ticks_max, not only each axis; the largest documented
// campaigns stay far inside the budget, and a spec exactly at it is
// admitted.
func TestSpecCostBudget(t *testing.T) {
	cases := []struct {
		name    string
		servers int
		designs []string
		mems    []uint64
		jitters []float64
		ticks   uint64
		ok      bool
	}{
		{"fleetscan -servers 500", 500, nil, []uint64{1024}, nil, 600, true},
		{"fleetscan default sweep", 200, []string{"linux", "contiguitas"}, []uint64{512, 1024}, []float64{0, 0.2}, 600, true},
		{"at the budget", 4096, nil, []uint64{1024}, nil, 1 << 18, true},
		{"one server over", 4097, nil, []uint64{1024}, nil, 1 << 18, false},
		{"cells multiply", 4096, []string{"linux", "contiguitas"}, []uint64{1024}, nil, 1 << 18, false},
		{"mems add up", 4096, nil, []uint64{1024, 16}, nil, 1 << 18, false},
		{"every axis at its own maximum", 1_000_000, nil, []uint64{1 << 20}, nil, 1_000_000, false},
	}
	for _, tc := range cases {
		sp := Spec{Servers: tc.servers, Designs: tc.designs, MemsMiB: tc.mems, Jitters: tc.jitters, TicksMax: tc.ticks}
		err := sp.normalized().validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: validate = %v, want ErrBadSpec", tc.name, err)
		}
	}
}

// TestQueueAdmissionBound: with no workers draining the queue, submits
// beyond QueueDepth get ErrQueueFull; distinct keys, distinct records.
func TestQueueAdmissionBound(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Store: NewMemory(), QueueDepth: 2})
	// Never started: the queue only fills.
	for i := 0; i < 2; i++ {
		if _, _, err := s.Submit(tinySpec(), fmt.Sprintf("q%d", i)); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	_, _, err := s.Submit(tinySpec(), "q2")
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Submitted != 2 || st.Rejected != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// The rejected campaign left no record — a 429 means "try again",
	// and a retry with the same key must be a fresh admission, not a
	// dedupe against a ghost.
	if _, err := s.Get(CampaignID("q2")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("rejected submit left a record: %v", err)
	}
}

// TestDrainRejectsAndPreservesQueue: draining flips submissions to
// ErrDraining and leaves queued campaigns queued (for the next process
// lifetime), never starting them.
func TestDrainRejectsAndPreservesQueue(t *testing.T) {
	st := NewMemory()
	s := NewScheduler(SchedulerConfig{Store: st, QueueDepth: 4})
	if _, _, err := s.Submit(tinySpec(), "parked"); err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Drain()
	if _, _, err := s.Submit(tinySpec(), "late"); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining = %v, want ErrDraining", err)
	}
	c, err := st.Get(CampaignID("parked"))
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateQueued && c.State != StateRunning && c.State != StateDone {
		t.Fatalf("parked campaign in state %s", c.State)
	}
}

// TestDeadlineFailsCampaign: a campaign that cannot finish inside its
// deadline fails terminally with a deadline message — it does not hang
// and does not stay running forever.
func TestDeadlineFailsCampaign(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		Store:           NewMemory(),
		Workers:         1,
		DefaultDeadline: time.Millisecond,
		BackoffBase:     time.Microsecond,
		BackoffCap:      time.Millisecond,
	})
	s.Start()
	defer s.Drain()
	sp := tinySpec()
	sp.Servers = 64
	sp.TicksMin, sp.TicksMax = 200, 400
	c, _, err := s.Submit(sp, "deadline")
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, c.ID)
	if fin.State != StateFailed {
		t.Fatalf("campaign %s, want failed", fin.State)
	}
	if fin.Error == "" {
		t.Fatal("failed campaign carries no error")
	}
	if s.Stats().Failed != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// TestRetryThenFailOnPersistentFaults: a fault plan that makes every
// checkpoint write fail forces quarantine; the scheduler retries with
// backoff up to the budget and then fails terminally, counting the
// retries.
func TestRetryThenFailOnPersistentFaults(t *testing.T) {
	sp := tinySpec()
	sp.MaxAttempts = 2
	s := NewScheduler(SchedulerConfig{
		Store:            NewMemory(),
		Workers:          1,
		BackoffBase:      time.Microsecond,
		BackoffCap:       time.Millisecond,
		ShardMaxAttempts: 2,
		Faults:           fleet.FaultPlan{CrashEveryN: 2, CheckpointFailProb: 1.0},
	})
	s.Start()
	defer s.Drain()
	c, _, err := s.Submit(sp, "doomed")
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, s, c.ID)
	if fin.State != StateFailed {
		t.Fatalf("campaign %s (%s), want failed", fin.State, fin.Error)
	}
	st := s.Stats()
	if st.Retried == 0 {
		t.Fatalf("terminal failure without a single retry: %+v", st)
	}
}
