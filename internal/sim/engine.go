// Package sim implements a deterministic discrete-event simulation
// engine with a virtual clock measured in seconds.
//
// The engine is the substrate that replaces real hardware threads in
// this reproduction: all runtime activity (task execution, work
// stealing, DVFS transitions, power-sensor sampling) is expressed as
// events in virtual time, which removes any interference from the Go
// garbage collector or goroutine scheduler and makes every experiment
// bit-for-bit reproducible.
//
// The event queue is an inlined, monomorphic 4-ary min-heap over
// *Event ordered by (time, sequence), and fired events are recycled
// through a free list, so steady-state scheduling via At/After (and
// the closure-free AtEvent/AfterEvent) performs no allocations.
package sim

import (
	"fmt"
	"math"
)

// Handler receives events scheduled with AtEvent/AfterEvent. Using a
// long-lived Handler plus the (i0, p0) payload avoids allocating a
// fresh closure per scheduled event on the simulation hot path; i0
// typically carries a core or cluster index and p0 a pointer payload
// (storing a pointer in an interface value does not allocate).
type Handler interface {
	OnEvent(i0 int, p0 any)
}

// Event is a scheduled callback. Events are ordered by time and, for
// equal times, by scheduling order (FIFO), which keeps the simulation
// deterministic.
//
// Event handles are pooled: a handle is valid until the event fires,
// after which the engine may recycle the Event for a later schedule.
// Holders must drop (or nil out) handles once the event has fired and
// must not Cancel a fired event's handle.
type Event struct {
	at        float64
	seq       uint64
	fn        func()
	h         Handler
	i0        int
	p0        any
	cancelled bool
}

// At returns the virtual time at which the event fires.
func (e *Event) At() float64 { return e.at }

// Cancel prevents the event from firing. Cancelling an already-
// cancelled event is a no-op; cancelling after the event has fired is
// invalid (the handle may have been recycled).
func (e *Event) Cancel() { e.cancelled = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.cancelled }

// Engine is a single-threaded discrete-event executor. The zero value
// is ready to use at time 0.
type Engine struct {
	now       float64
	seq       uint64
	pq        []*Event // 4-ary min-heap ordered by (at, seq)
	free      []*Event // recycled events
	processed uint64
}

// New returns an engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Processed returns the number of events processed so far: fired live
// events plus reaped cancelled ones — every event that left the queue,
// each counted exactly once.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (including
// cancelled events not yet reaped).
func (e *Engine) Pending() int { return len(e.pq) }

// less orders events by (time, sequence). The sequence tiebreak makes
// the order a strict total order, so any correct heap pops events in
// exactly the same sequence.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the 4-ary heap (sift-up).
func (e *Engine) push(ev *Event) {
	pq := append(e.pq, ev)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(pq[i], pq[parent]) {
			break
		}
		pq[i], pq[parent] = pq[parent], pq[i]
		i = parent
	}
	e.pq = pq
}

// pop removes and returns the minimum event (sift-down), or nil.
func (e *Engine) pop() *Event {
	pq := e.pq
	n := len(pq)
	if n == 0 {
		return nil
	}
	top := pq[0]
	last := pq[n-1]
	pq[n-1] = nil
	pq = pq[:n-1]
	n--
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			end := first + 4
			if end > n {
				end = n
			}
			for c := first + 1; c < end; c++ {
				if less(pq[c], pq[min]) {
					min = c
				}
			}
			if !less(pq[min], last) {
				break
			}
			pq[i] = pq[min]
			i = min
		}
		pq[i] = last
	}
	e.pq = pq
	return top
}

// alloc takes an Event from the free list or the heap (the Go one).
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &Event{}
}

// release drops an event's closure/payload references and returns it
// to the free list for reuse. The cancelled flag survives until the
// event is recycled, so Cancelled() stays queryable on a handle whose
// event was reaped.
func (e *Engine) release(ev *Event) {
	ev.fn = nil
	ev.h = nil
	ev.p0 = nil
	e.free = append(e.free, ev)
}

// schedule validates t and enqueues a recycled event.
func (e *Engine) schedule(t float64) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %.9fs before now %.9fs", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", t))
	}
	ev := e.alloc()
	ev.at = t
	ev.cancelled = false
	ev.seq = e.seq
	e.seq++
	e.push(ev)
	return ev
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it would silently corrupt causality.
func (e *Engine) At(t float64, fn func()) *Event {
	ev := e.schedule(t)
	ev.fn = fn
	return ev
}

// After schedules fn to run d seconds from now. Negative d is clamped
// to zero.
func (e *Engine) After(d float64, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// AtEvent schedules h.OnEvent(i0, p0) at absolute virtual time t
// without allocating a closure.
func (e *Engine) AtEvent(t float64, h Handler, i0 int, p0 any) *Event {
	ev := e.schedule(t)
	ev.h = h
	ev.i0 = i0
	ev.p0 = p0
	return ev
}

// AfterEvent schedules h.OnEvent(i0, p0) d seconds from now without
// allocating a closure. Negative d is clamped to zero.
func (e *Engine) AfterEvent(d float64, h Handler, i0 int, p0 any) *Event {
	if d < 0 {
		d = 0
	}
	return e.AtEvent(e.now+d, h, i0, p0)
}

// Reset rewinds the engine to time 0 for another simulation: pending
// events (fired or not) are drained into the free list and the clock,
// sequence counter and processed count start over. The pooled events
// and the heap's backing array are retained, so a reset engine
// schedules its first events without allocating. Handles to drained
// events are invalid after Reset, exactly as after firing.
func (e *Engine) Reset() {
	for i, ev := range e.pq {
		e.release(ev)
		e.pq[i] = nil
	}
	e.pq = e.pq[:0]
	e.now = 0
	e.seq = 0
	e.processed = 0
}

// Step processes the next queued event and returns false if no events
// remain. A live event advances the clock and fires its callback; a
// cancelled event is reaped (released without firing, clock
// unchanged). Both count as exactly one processed step — one pop, one
// event — so Processed is a pure function of the schedule/cancel
// sequence the simulation produced, never of which loop (Run,
// RunLimit, RunUntil) happened to drain the queue. That is what makes
// event counts comparable between cancellable (RunLimit-polled) and
// plain runs.
func (e *Engine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	e.processed++
	if ev.cancelled {
		e.release(ev)
		return true
	}
	e.now = ev.at
	fn, h, i0, p0 := ev.fn, ev.h, ev.i0, ev.p0
	e.release(ev)
	if h != nil {
		h.OnEvent(i0, p0)
	} else {
		fn()
	}
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with firing time <= t, then advances the
// clock to exactly t (even if no event fired at t).
func (e *Engine) RunUntil(t float64) {
	for {
		ev := e.peek()
		if ev == nil || ev.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// RunLimit processes at most n events (cancelled reaps included, like
// Step); it returns the number processed. The runtime's cooperative
// cancel poll uses it as a bounded work quantum; tests use it as a
// runaway guard.
func (e *Engine) RunLimit(n uint64) uint64 {
	var done uint64
	for done < n && e.Step() {
		done++
	}
	return done
}

func (e *Engine) peek() *Event {
	for len(e.pq) > 0 {
		if e.pq[0].cancelled {
			// Reaping here is the same unit of work as reaping in Step;
			// count it so Processed does not depend on whether a peek
			// or a Step drained the cancelled head.
			e.processed++
			e.release(e.pop())
			continue
		}
		return e.pq[0]
	}
	return nil
}

// NextEventTime returns the firing time of the next live event and
// true, or 0 and false if the queue is empty.
func (e *Engine) NextEventTime() (float64, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}
