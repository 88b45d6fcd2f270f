package supervise

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"contiguitas/internal/telemetry"
)

// countShard finishes after steps calls to Step.
type countShard struct {
	steps, done int
}

func (s *countShard) Step() (bool, error) {
	s.done++
	return s.done >= s.steps, nil
}

// flakyShard crashes (error or panic) until the given attempt number.
type flakyShard struct {
	attempt  int
	failPast int
	panics   bool
	stepped  int
}

func (s *flakyShard) Step() (bool, error) {
	s.stepped++
	if s.attempt <= s.failPast {
		if s.panics {
			panic(fmt.Sprintf("injected panic on attempt %d", s.attempt))
		}
		return false, fmt.Errorf("injected error on attempt %d", s.attempt)
	}
	return s.stepped >= 3, nil
}

// stuckShard blocks inside Step until stopped — watchdog bait. After
// Stop unwedges it, Step returns cleanly and the attempt loop's
// stop-check acknowledges the abandon, which the watchdog reports as a
// heartbeat crash.
type stuckShard struct {
	stop chan struct{}
}

func (s *stuckShard) Step() (bool, error) {
	<-s.stop
	return false, nil
}

func (s *stuckShard) Stop() { close(s.stop) }

func TestAllShardsFinish(t *testing.T) {
	const n = 8
	rep := Run(context.Background(), Config{
		Shards: n,
		Open: func(shard, attempt int) (Shard, error) {
			return &countShard{steps: shard + 1}, nil
		},
	})
	if !rep.Complete || rep.Finished != n || rep.Crashes != 0 || rep.Quarantined != 0 {
		t.Fatalf("report = %s, want %d clean finishes", rep, n)
	}
	for i, st := range rep.Shards {
		if st.Status != StatusDone || st.Attempts != 1 {
			t.Fatalf("shard %d: status %s attempts %d", i, st.Status, st.Attempts)
		}
	}
}

func TestZeroShardsIsVacuouslyComplete(t *testing.T) {
	rep := Run(context.Background(), Config{Shards: 0})
	if !rep.Complete {
		t.Fatalf("empty campaign not complete: %s", rep)
	}
}

func TestCrashRetryThenFinish(t *testing.T) {
	for _, panics := range []bool{false, true} {
		var events []EventKind
		rep := Run(context.Background(), Config{
			Shards:      1,
			MaxAttempts: 5,
			BackoffBase: time.Microsecond,
			Open: func(shard, attempt int) (Shard, error) {
				return &flakyShard{attempt: attempt, failPast: 2, panics: panics}, nil
			},
			OnEvent: func(ev Event) { events = append(events, ev.Kind) },
		})
		if !rep.Complete || rep.Crashes != 2 || rep.Resumed != 1 {
			t.Fatalf("panics=%v: report = %s, want complete with 2 crashes", panics, rep)
		}
		wantKind := CrashError
		if panics {
			wantKind = CrashPanic
		}
		for _, c := range rep.Shards[0].Crashes {
			if c.Kind != wantKind {
				t.Fatalf("panics=%v: crash kind %s, want %s", panics, c.Kind, wantKind)
			}
		}
		want := []EventKind{EventCrash, EventResume, EventCrash, EventResume, EventDone}
		if len(events) != len(want) {
			t.Fatalf("panics=%v: events %v, want %v", panics, events, want)
		}
		for i := range want {
			if events[i] != want[i] {
				t.Fatalf("panics=%v: events %v, want %v", panics, events, want)
			}
		}
	}
}

func TestOpenErrorCountsAsCrash(t *testing.T) {
	rep := Run(context.Background(), Config{
		Shards:      1,
		MaxAttempts: 2,
		BackoffBase: time.Microsecond,
		Open: func(shard, attempt int) (Shard, error) {
			return nil, errors.New("open refused")
		},
	})
	if rep.Complete || rep.Quarantined != 1 || rep.Crashes != 2 {
		t.Fatalf("report = %s, want quarantine after 2 open failures", rep)
	}
	for _, c := range rep.Shards[0].Crashes {
		if c.Kind != CrashError {
			t.Fatalf("crash kind %s, want %s", c.Kind, CrashError)
		}
	}
}

func TestQuarantineDegradesNotFails(t *testing.T) {
	const n = 4
	ring := telemetry.NewRing(64)
	reg := telemetry.NewRegistry()
	rep := Run(context.Background(), Config{
		Shards:      n,
		MaxAttempts: 3,
		BackoffBase: time.Microsecond,
		Open: func(shard, attempt int) (Shard, error) {
			if shard == 1 {
				return &flakyShard{attempt: attempt, failPast: 1 << 30}, nil
			}
			return &countShard{steps: 2}, nil
		},
		Trace:   ring,
		Metrics: reg,
	})
	if rep.Complete {
		t.Fatalf("campaign with a doomed shard reported complete: %s", rep)
	}
	if rep.Finished != n-1 || rep.Quarantined != 1 {
		t.Fatalf("report = %s, want %d finished + 1 quarantined", rep, n-1)
	}
	if rep.Shards[1].Status != StatusQuarantined || rep.Shards[1].Attempts != 3 {
		t.Fatalf("shard 1: %+v, want quarantined after 3 attempts", rep.Shards[1])
	}
	if got := reg.Counter("shard_crashes").Value(); got != 3 {
		t.Fatalf("shard_crashes = %d, want 3", got)
	}
	if got := reg.Counter("shard_quarantines").Value(); got != 1 {
		t.Fatalf("shard_quarantines = %d, want 1", got)
	}
	if got := reg.Counter("shard_resumes").Value(); got != 2 {
		t.Fatalf("shard_resumes = %d, want 2", got)
	}
	if reg.Histogram("shard_restart").Count() != 2 {
		t.Fatalf("shard_restart observations = %d, want 2", reg.Histogram("shard_restart").Count())
	}
	var sawCrash, sawQuarantine bool
	for _, rec := range ring.Snapshot(nil) {
		switch rec.ID {
		case telemetry.EvShardCrash:
			sawCrash = true
		case telemetry.EvShardQuarantine:
			sawQuarantine = true
		}
	}
	if !sawCrash || !sawQuarantine {
		t.Fatalf("trace ring missing supervision events (crash=%v quarantine=%v)", sawCrash, sawQuarantine)
	}
}

func TestWatchdogAbandonsStuckShard(t *testing.T) {
	var opened atomic.Int32
	rep := Run(context.Background(), Config{
		Shards:      1,
		MaxAttempts: 3,
		BackoffBase: time.Microsecond,
		Heartbeat:   20 * time.Millisecond,
		Open: func(shard, attempt int) (Shard, error) {
			if opened.Add(1) == 1 {
				return &stuckShard{stop: make(chan struct{})}, nil
			}
			return &countShard{steps: 2}, nil
		},
	})
	if !rep.Complete || rep.Crashes != 1 {
		t.Fatalf("report = %s, want recovery after one watchdog crash", rep)
	}
	if k := rep.Shards[0].Crashes[0].Kind; k != CrashWatchdog {
		t.Fatalf("crash kind %s, want %s", k, CrashWatchdog)
	}
}

func TestCancellationStopsWithoutLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The shards never finish; cancellation is the only way out.
	time.AfterFunc(50*time.Millisecond, cancel)
	rep := Run(ctx, Config{
		Shards:  8,
		Workers: 2,
		Open: func(shard, attempt int) (Shard, error) {
			return &countShard{steps: 1 << 30}, nil
		},
	})
	if rep.Complete {
		t.Fatalf("canceled campaign reported complete: %s", rep)
	}
	if !rep.Canceled {
		t.Fatalf("canceled campaign not marked canceled: %s", rep)
	}
	if rep.Finished != 0 {
		t.Fatalf("endless shards finished: %s", rep)
	}
	// Workers and attempt goroutines must drain: allow the runtime a
	// moment, then require the goroutine count to return to baseline.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	base, cap := 5*time.Millisecond, 40*time.Millisecond
	want := []time.Duration{5, 5, 10, 20, 40, 40, 40}
	for failed, w := range want {
		if got := Backoff(base, cap, failed); got != w*time.Millisecond {
			t.Fatalf("Backoff(failed=%d) = %v, want %v", failed, got, w*time.Millisecond)
		}
	}
}
