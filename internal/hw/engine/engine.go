// Package engine is a minimal discrete-event simulation core: a cycle
// clock and an ordered event queue. Every hardware component in the
// simulator schedules work as closures at absolute cycles; ties are
// broken by insertion order so runs are deterministic.
package engine

import "container/heap"

type event struct {
	cycle uint64
	seq   uint64
	fn    func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].cycle != q[j].cycle {
		return q[i].cycle < q[j].cycle
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Engine is the simulation clock and scheduler.
type Engine struct {
	q   eventQueue
	now uint64
	seq uint64
}

// New returns an engine at cycle 0.
func New() *Engine { return &Engine{} }

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// At schedules fn at the given absolute cycle (>= Now).
func (e *Engine) At(cycle uint64, fn func()) {
	if cycle < e.now {
		cycle = e.now
	}
	heap.Push(&e.q, event{cycle: cycle, seq: e.seq, fn: fn})
	e.seq++
}

// After schedules fn delay cycles from now.
func (e *Engine) After(delay uint64, fn func()) { e.At(e.now+delay, fn) }

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for len(e.q) > 0 {
		ev := heap.Pop(&e.q).(event)
		e.now = ev.cycle
		ev.fn()
	}
}

// RunUntil executes events with cycle <= limit; the clock ends at limit
// if the queue drains earlier.
func (e *Engine) RunUntil(limit uint64) {
	for len(e.q) > 0 {
		if e.q[0].cycle > limit {
			break
		}
		ev := heap.Pop(&e.q).(event)
		e.now = ev.cycle
		ev.fn()
	}
	if e.now < limit {
		e.now = limit
	}
}
