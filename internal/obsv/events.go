// EventBus fans tracepoint records out to HTTP event-stream
// subscribers without ever making the emitting goroutine wait.
//
// The bus sits behind Ring.SetSink, which means Publish runs inline on
// the simulation's hot path. Two consequences shape the design: with no
// subscribers, Publish must cost one atomic load and nothing else (the
// common case — most runs are never watched); with subscribers, a slow
// reader must shed records rather than apply backpressure, because a
// stalled curl must never stall the kernel model. Both are the same
// choices the kernel's ftrace/perf ring buffers make — drop and count,
// never block the producer.
package obsv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"contiguitas/internal/telemetry"
)

// subscriber is one /events connection's mailbox. The channel is
// buffered; when it is full the publisher drops the record and bumps
// the subscriber's drop counter, which the SSE handler later reports
// in-band as a comment so the client knows its view has gaps.
type subscriber struct {
	ch      chan telemetry.Record
	dropped atomic.Uint64
}

// EventBus is a copy-on-write fan-out of telemetry records. Publish is
// wait-free for the producer; Subscribe/unsubscribe/Close are
// mutex-serialized (rare, reader-side).
type EventBus struct {
	// subs holds the immutable current subscriber list. Publishers only
	// load it; mutations swap in a fresh slice under mu.
	subs atomic.Pointer[[]*subscriber]
	mu   sync.Mutex
	// closed wakes every blocked SSE handler when the run ends.
	closed    chan struct{}
	closeOnce sync.Once
	// droppedTotal counts records shed across all subscribers, exposed
	// on the bus for tests and the drop comment baseline.
	droppedTotal atomic.Uint64
	published    atomic.Uint64
}

// NewEventBus returns an empty bus.
func NewEventBus() *EventBus {
	return &EventBus{closed: make(chan struct{})}
}

// Publish offers rec to every current subscriber, dropping for any
// whose buffer is full. Safe to call from the tracepoint emit path: a
// nil bus or an empty subscriber list costs one branch plus one atomic
// load, and no path ever blocks.
func (b *EventBus) Publish(rec telemetry.Record) {
	if b == nil {
		return
	}
	subs := b.subs.Load()
	if subs == nil || len(*subs) == 0 {
		return
	}
	b.published.Add(1)
	for _, s := range *subs {
		select {
		case s.ch <- rec:
		default:
			s.dropped.Add(1)
			b.droppedTotal.Add(1)
		}
	}
}

// Sink adapts the bus to the Ring.SetSink signature.
func (b *EventBus) Sink() func(telemetry.Record) {
	return func(rec telemetry.Record) { b.Publish(rec) }
}

// Subscribe registers a mailbox of the given buffer depth (min 1) and
// returns it with a cancel func. Cancel is idempotent.
func (b *EventBus) Subscribe(buf int) (*subscriber, func()) {
	if buf < 1 {
		buf = 1
	}
	s := &subscriber{ch: make(chan telemetry.Record, buf)}
	b.mu.Lock()
	b.subs.Store(appendSub(b.subs.Load(), s))
	b.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			b.mu.Lock()
			b.subs.Store(removeSub(b.subs.Load(), s))
			b.mu.Unlock()
		})
	}
	return s, cancel
}

func appendSub(cur *[]*subscriber, s *subscriber) *[]*subscriber {
	var next []*subscriber
	if cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, s)
	return &next
}

func removeSub(cur *[]*subscriber, s *subscriber) *[]*subscriber {
	next := []*subscriber{}
	if cur != nil {
		for _, x := range *cur {
			if x != s {
				next = append(next, x)
			}
		}
	}
	return &next
}

// Close wakes every subscriber's handler; Publish afterwards is still
// safe (records go nowhere once handlers unsubscribe). Idempotent.
func (b *EventBus) Close() {
	if b == nil {
		return
	}
	b.closeOnce.Do(func() { close(b.closed) })
}

// busEvent is the JSON rendering of one record on the wire: the raw
// args plus the event's stable name and its per-arg names from Meta,
// so a consumer needs no side table.
type busEvent struct {
	Tick  uint64            `json:"tick"`
	Event string            `json:"event"`
	Track string            `json:"track"`
	Args  map[string]uint64 `json:"args,omitempty"`
}

func renderEvent(rec telemetry.Record) busEvent {
	ev := busEvent{Tick: rec.Tick, Event: rec.ID.String()}
	if rec.ID < telemetry.NumEvents {
		meta := telemetry.Meta[rec.ID]
		ev.Track = meta.Track.String()
		vals := [3]uint64{rec.A, rec.B, rec.C}
		for i, name := range meta.Args {
			if name != "" {
				if ev.Args == nil {
					ev.Args = make(map[string]uint64, 3)
				}
				ev.Args[name] = vals[i]
			}
		}
	}
	return ev
}

// serveEvents streams records as Server-Sent Events: one `data:` line
// of JSON per record, a `: ping` comment on idle so proxies and clients
// can detect liveness, and a `: dropped N` comment whenever the
// subscriber's shed count advances. The stream ends when the client
// disconnects or the bus closes (end of run).
func (b *EventBus) serveEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, ": contiguitas event stream\n\n")
	flusher.Flush()

	sub, cancel := b.Subscribe(256)
	defer cancel()
	ping := time.NewTicker(time.Second)
	defer ping.Stop()
	var reportedDrops uint64
	for {
		select {
		case rec := <-sub.ch:
			data, err := json.Marshal(renderEvent(rec))
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "data: %s\n\n", data)
			if d := sub.dropped.Load(); d != reportedDrops {
				fmt.Fprintf(w, ": dropped %d\n\n", d)
				reportedDrops = d
			}
			flusher.Flush()
		case <-ping.C:
			fmt.Fprintf(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-b.closed:
			fmt.Fprintf(w, ": closed\n\n")
			flusher.Flush()
			return
		}
	}
}
