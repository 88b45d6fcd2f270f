package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flakyStore wraps a Store and fails write operations on demand: the
// first failN calls to Put/PutCell/PutResult error, later calls pass
// through. Probe shares the same switch, so the degraded-mode probe
// loop sees the backend heal exactly when writes start succeeding.
type flakyStore struct {
	Store
	mu     sync.Mutex
	failN  int // writes left to fail; negative = fail forever
	failed atomic.Uint64
}

var errFlaky = errors.New("flaky store: injected write failure")

func (f *flakyStore) broken() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failN == 0 {
		return false
	}
	if f.failN > 0 {
		f.failN--
	}
	f.failed.Add(1)
	return true
}

func (f *flakyStore) heal() {
	f.mu.Lock()
	f.failN = 0
	f.mu.Unlock()
}

func (f *flakyStore) Put(c *Campaign) error {
	if f.broken() {
		return errFlaky
	}
	return f.Store.Put(c)
}

func (f *flakyStore) PutCell(id string, cell int, data []byte) error {
	if f.broken() {
		return errFlaky
	}
	return f.Store.PutCell(id, cell, data)
}

func (f *flakyStore) PutResult(id string, data []byte) error {
	if f.broken() {
		return errFlaky
	}
	return f.Store.PutResult(id, data)
}

func (f *flakyStore) Probe() error {
	if f.broken() {
		return errFlaky
	}
	return f.Store.Probe()
}

// TestFlakyStoreCampaignCompletes: a store that fails N writes and then
// heals must cost exactly N retries — the campaign completes, nothing
// degrades, and the counters match the injected schedule.
func TestFlakyStoreCampaignCompletes(t *testing.T) {
	const faults = 4
	fs := &flakyStore{Store: NewMemory(), failN: faults}
	s := NewScheduler(SchedulerConfig{
		Store:        fs,
		Workers:      1,
		BackoffBase:  time.Microsecond,
		BackoffCap:   time.Millisecond,
		StoreRetries: faults + 2, // budget comfortably above the fault count
	})
	s.Start()
	defer s.Drain()

	c, _, err := s.Submit(tinySpec(), "flaky")
	if err != nil {
		t.Fatalf("Submit under flaky store: %v", err)
	}
	fin := waitTerminal(t, s, c.ID)
	if fin.State != StateDone {
		t.Fatalf("campaign %s: %s", fin.State, fin.Error)
	}
	st := s.Stats()
	if st.StoreRetried != faults {
		t.Fatalf("store_retried = %d, want %d (one per injected failure)", st.StoreRetried, faults)
	}
	if st.StoreErrors != 0 {
		t.Fatalf("store_errors = %d, want 0 (every retry budget held)", st.StoreErrors)
	}
	if st.Degraded {
		t.Fatal("daemon degraded although the retry budget absorbed every fault")
	}
	if got := fs.failed.Load(); got != faults {
		t.Fatalf("injected %d faults, store saw %d", faults, got)
	}
}

// TestPersistentStoreFailureDegradesAndRecovers: a store failing past
// the retry budget fails the campaign with the typed storage error and
// flips the daemon into read-only degraded mode; once the backend
// heals, the probe loop lifts degraded mode and admission resumes.
func TestPersistentStoreFailureDegradesAndRecovers(t *testing.T) {
	fs := &flakyStore{Store: NewMemory(), failN: 0}
	s := NewScheduler(SchedulerConfig{
		Store:         fs,
		Workers:       1,
		BackoffBase:   time.Microsecond,
		BackoffCap:    time.Millisecond,
		StoreRetries:  2,
		ProbeInterval: time.Millisecond,
	})
	s.Start()
	defer s.Drain()

	// Admit while healthy, then break the store before the worker's
	// first journal write.
	fs.mu.Lock()
	fs.failN = -1
	fs.mu.Unlock()
	c, _, err := s.Submit(tinySpec(), "doomed")
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("Submit on dead store: err = %v, want ErrStorage", err)
	}
	if c != nil {
		t.Fatalf("campaign acknowledged on dead store: %+v", c)
	}
	if s.Health() != "degraded" {
		t.Fatalf("Health() = %q after persistent store failure, want degraded", s.Health())
	}

	// Degraded mode refuses new admissions with the typed error.
	if _, _, err := s.Submit(tinySpec(), "while-degraded"); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Submit while degraded: err = %v, want ErrDegraded", err)
	}

	// Heal the backend; the probe loop must lift degraded mode.
	fs.heal()
	deadline := time.Now().Add(10 * time.Second)
	for s.Health() == "degraded" && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Health() != "ok" {
		t.Fatalf("Health() = %q after heal, want ok", s.Health())
	}
	c, _, err = s.Submit(tinySpec(), "after-heal")
	if err != nil {
		t.Fatalf("Submit after heal: %v", err)
	}
	fin := waitTerminal(t, s, c.ID)
	if fin.State != StateDone {
		t.Fatalf("post-heal campaign %s: %s", fin.State, fin.Error)
	}
	if st := s.Stats(); st.StoreErrors == 0 {
		t.Fatalf("store_errors = 0 after a persistent failure: %+v", st)
	}
}

// TestRunningCampaignStorageFailureIsTyped: a campaign already running
// when the store dies must fail with the typed storage error (or stay
// non-terminal for recovery), never a silent or untyped failure, and
// reads must keep working in degraded mode.
func TestRunningCampaignStorageFailureIsTyped(t *testing.T) {
	fs := &flakyStore{Store: NewMemory(), failN: 0}
	s := NewScheduler(SchedulerConfig{
		Store:         fs,
		Workers:       1,
		BackoffBase:   time.Microsecond,
		BackoffCap:    time.Millisecond,
		StoreRetries:  2,
		ProbeInterval: time.Hour, // keep degraded for the duration
	})
	s.Start()
	defer s.Drain()

	done, _, err := s.Submit(tinySpec(), "done-first")
	if err != nil {
		t.Fatal(err)
	}
	if fin := waitTerminal(t, s, done.ID); fin.State != StateDone {
		t.Fatalf("setup campaign: %s (%s)", fin.State, fin.Error)
	}

	// Break every write from now on: the next campaign's first journal
	// write (running state) fails past the budget.
	sp := tinySpec()
	sp.Seed = 99
	fs.mu.Lock()
	fs.failN = -1
	fs.mu.Unlock()
	if _, _, err := s.Submit(sp, "mid-flight"); !errors.Is(err, ErrStorage) {
		t.Fatalf("submit on dead store: %v, want ErrStorage", err)
	}
	if s.Health() != "degraded" {
		t.Fatal("not degraded")
	}

	// Reads still serve while degraded.
	if _, err := s.Get(done.ID); err != nil {
		t.Fatalf("Get while degraded: %v", err)
	}
	if _, err := s.Result(done.ID); err != nil {
		t.Fatalf("Result while degraded: %v", err)
	}
}
