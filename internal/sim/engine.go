// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock (integer nanoseconds) by executing
// events from a priority queue ordered by (time, insertion sequence).
// On top of the raw event calendar, the package offers a process model
// (Proc) in which each simulated activity runs in its own goroutine and
// synchronizes with the engine through a strict handshake, so execution
// is sequential and fully deterministic: at any instant exactly one
// goroutine — the engine or a single process — is running.
//
// A handoff costs two channel operations and a trip through the Go
// scheduler, so the engine skips the ones that change nothing. A
// process the engine resumed from its own calendar event sleeps
// straight through to its wake-up, without parking, when that wake-up
// is within the current Run/RunUntil horizon and strictly earlier than
// every pending event: parking would only pop its event straight back.
// A process woken inline, by another process's Resource.Release or
// Completion.Done or by a scheduled callback, always parks, because its
// waker is still in the same instant and must not see the clock move.
//
// All higher-level subsystems of this repository (disks, RAID, caches,
// networks, filesystems, the MPI-IO analogue) are built on this engine.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is an absolute simulated time in nanoseconds since the start of
// the simulation.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Seconds returns the time as a floating-point number of seconds since
// the simulation began.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(d))
}

// DurationFromSeconds converts seconds to a simulated Duration,
// rounding to the nearest nanosecond.
func DurationFromSeconds(s float64) Duration {
	return Duration(s*float64(Second) + 0.5)
}

// An event either runs fn or resumes p.
type event struct {
	t   Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
	p   *Proc
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	free    []*event // dispatched events, recycled by push
	running bool
	limit   Time    // horizon of the current Run/RunUntil
	direct  *Proc   // process resumed by its own calendar event, until it parks
	procs   int     // live (spawned, unfinished) processes, for diagnostics
	idle    []*Proc // finished Fork children, reused by Fork until retire
}

// NewEngine returns an engine with the clock at zero and an empty
// event calendar.
func NewEngine() *Engine {
	e := &Engine{}
	heap.Init(&e.events)
	return e
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run at now+delay. A negative delay
// panics: the simulation cannot travel backwards.
func (e *Engine) Schedule(delay Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.push(e.now+Time(delay), fn, nil)
}

// ScheduleAt arranges for fn to run at absolute time t, which must not
// be in the past.
func (e *Engine) ScheduleAt(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt %d in the past (now %d)", t, e.now))
	}
	e.push(t, fn, nil)
}

// push puts fn, or the resumption of p, on the calendar at t, reusing
// a dispatched event when one is free.
func (e *Engine) push(t Time, fn func(), p *Proc) {
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	e.seq++
	ev.t, ev.seq, ev.fn, ev.p = t, e.seq, fn, p
	heap.Push(&e.events, ev)
}

// dispatch pops the earliest event, advances the clock to it, recycles
// the event and runs its function or resumes its process. The event is
// free before either runs, so whatever they schedule can reuse it. A
// resumed process is the engine's direct runner until it parks, which
// lets its Sleep skip the calendar (see Proc.Sleep).
func (e *Engine) dispatch() {
	ev := heap.Pop(&e.events).(*event)
	e.now = ev.t
	fn, p := ev.fn, ev.p
	ev.fn, ev.p = nil, nil
	e.free = append(e.free, ev)
	if p == nil {
		fn()
		return
	}
	e.direct = p
	p.wakeNow()
	e.direct = nil
}

// Run executes events until the calendar is empty, returning the final
// simulated time. If any spawned process is still blocked when the
// calendar drains (a deadlock in the modeled system), Run panics,
// because silently dropping stuck work would corrupt every measurement
// taken from the simulation.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	defer e.stop()
	e.limit = math.MaxInt64
	for e.events.Len() > 0 {
		e.dispatch()
	}
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) still blocked with no pending events", e.procs))
	}
	return e.now
}

// RunUntil executes events with time ≤ limit and then stops, leaving
// later events on the calendar. The clock is advanced to limit even if
// no event lands exactly there.
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: RunUntil called re-entrantly")
	}
	e.running = true
	defer e.stop()
	e.limit = limit
	for e.events.Len() > 0 && e.events[0].t <= limit {
		e.dispatch()
	}
	if e.now < limit {
		e.now = limit
	}
	return e.now
}

// stop ends a Run or RunUntil call. It retires the idle Fork
// children: each is resumed with no body, and acknowledges before its
// goroutine exits. So no pooled goroutine outlives the call, and an
// engine that is dropped leaks none.
func (e *Engine) stop() {
	for _, c := range e.idle {
		c.wakeNow()
	}
	clear(e.idle)
	e.idle = e.idle[:0]
	e.running = false
}

// Pending reports the number of events waiting on the calendar.
func (e *Engine) Pending() int { return e.events.Len() }
