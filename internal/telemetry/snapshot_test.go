package telemetry

import (
	"sync"
	"testing"
	"time"
)

func TestNilPublisherIsInert(t *testing.T) {
	var p *Publisher
	p.Pump(1)
	p.Publish(2)
	if p.Latest() != nil || p.Fresh(time.Millisecond) != nil {
		t.Fatal("nil publisher leaked state")
	}
}

func TestPumpPublishesOnlyOnDemand(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("ticks")
	p := NewPublisher(reg)

	if p.Latest() != nil {
		t.Fatal("snapshot before any publication")
	}
	// No reader has asked: pumping is free and publishes nothing.
	for i := 0; i < 10; i++ {
		c.Inc()
		p.Pump(uint64(i))
	}
	if p.Latest() != nil {
		t.Fatal("Pump published without a waiting reader")
	}

	// A reader asks; the next pump satisfies exactly one request.
	done := make(chan *MetricsSnapshot, 1)
	go func() { done <- p.Fresh(time.Second) }()
	deadline := time.Now().Add(time.Second)
	for {
		c.Inc()
		p.Pump(99)
		select {
		case s := <-done:
			if s == nil {
				t.Fatal("Fresh returned nil with a live writer")
			}
			if s.Tick != 99 || s.Gen != 1 {
				t.Fatalf("snapshot tick=%d gen=%d, want 99/1", s.Tick, s.Gen)
			}
			if got := s.Counter("ticks"); got == nil || got.Value == 0 {
				t.Fatalf("counter missing from snapshot: %+v", s.Counters)
			}
			// The want flag was consumed: further pumps publish nothing.
			p.Pump(100)
			if p.Latest().Gen != 1 {
				t.Fatal("Pump published again without a new request")
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("Fresh never completed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFreshDegradesToStaleSnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("x").Add(7)
	p := NewPublisher(reg)
	p.Publish(1)
	// No writer will ever pump again; Fresh must return the stale
	// snapshot after the wait, never block forever.
	start := time.Now()
	s := p.Fresh(20 * time.Millisecond)
	if s == nil || s.Counter("x").Value != 7 {
		t.Fatalf("stale snapshot lost: %+v", s)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Fresh blocked far past its wait")
	}
}

func TestCaptureIsImmutable(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c")
	h := reg.NewHistogram("h")
	reg.GaugeFunc("g", func() float64 { return float64(c.Value()) })
	c.Add(3)
	h.Observe(10)
	h.Observe(100)

	s := reg.Capture(5)
	c.Add(100)
	h.Observe(1000)

	if got := s.Counter("c").Value; got != 3 {
		t.Fatalf("captured counter mutated: %d", got)
	}
	hs := s.Histogram("h")
	if hs.Count != 2 || hs.Sum != 110 {
		t.Fatalf("captured histogram mutated: count=%d sum=%d", hs.Count, hs.Sum)
	}
	var bucketSum uint64
	for _, b := range hs.Buckets {
		bucketSum += b[1]
	}
	if bucketSum != hs.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, hs.Count)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 3 {
		t.Fatalf("gauge captured wrong: %+v", s.Gauges)
	}
}

// TestScrapeNeverRacesWriter is the -race gate for the snapshot plane:
// one writer hammers plain-uint64 counters and histograms while many
// readers demand fresh snapshots. Readers must observe strictly
// monotonic generations and non-decreasing counter values.
func TestScrapeNeverRacesWriter(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("events")
	h := reg.NewHistogram("lat")
	p := NewPublisher(reg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the single writer
		defer wg.Done()
		for tick := uint64(0); ; tick++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Inc()
			h.Observe(tick % 4096)
			p.Pump(tick)
		}
	}()

	const readers = 8
	wg.Add(readers)
	for i := 0; i < readers; i++ {
		go func() {
			defer wg.Done()
			var lastGen, lastVal uint64
			for n := 0; n < 200; n++ {
				s := p.Fresh(50 * time.Millisecond)
				if s == nil {
					continue
				}
				if s.Gen < lastGen {
					t.Errorf("generation went backwards: %d -> %d", lastGen, s.Gen)
					return
				}
				v := s.Counter("events").Value
				if v < lastVal {
					t.Errorf("counter went backwards: %d -> %d", lastVal, v)
					return
				}
				hs := s.Histogram("lat")
				var sum uint64
				for _, b := range hs.Buckets {
					sum += b[1]
				}
				if sum != hs.Count {
					t.Errorf("bucket sum %d != count %d", sum, hs.Count)
					return
				}
				lastGen, lastVal = s.Gen, v
			}
		}()
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Let readers finish, then stop the writer.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("scrape test wedged")
	}
}

func TestRingSinkSeesEveryEmit(t *testing.T) {
	r := NewRing(8)
	var got []Record
	r.SetSink(func(rec Record) { got = append(got, rec) })
	for i := uint64(0); i < 20; i++ {
		r.Emit(i, EvAlloc, i, 0, 0)
	}
	// The ring overwrote (cap 8 < 20) but the sink saw all 20.
	if len(got) != 20 {
		t.Fatalf("sink saw %d records, want 20", len(got))
	}
	if got[19].Tick != 19 || got[19].A != 19 {
		t.Fatalf("last sunk record wrong: %+v", got[19])
	}
}
