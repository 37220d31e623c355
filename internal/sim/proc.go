package sim

import "fmt"

// Proc is a simulated process: a goroutine that advances only when
// control is passed to it, and that passes control on whenever it
// blocks on simulated time or on a resource. Exactly one goroutine
// runs at any moment, so simulations are deterministic regardless of
// GOMAXPROCS.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{} // control passes to this process
	yield  chan struct{} // an inline-woken process -> its waker: parked or finished
	wake   func()        // p.wakeNow, bound once so PrepareWait does not allocate
	inline bool          // woken by wakeNow, until it parks or finishes

	// A Fork child's name parts, formatted only by Name.
	parent *Proc
	label  string
	index  int

	fn    func(*Proc) // a pooled Fork child's body until it returns; nil retires the child
	joins int         // this process's Fork children still running
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the diagnostic name given at spawn time; a Fork child
// is named "<parent>/<label>[<index>]".
func (p *Proc) Name() string {
	if p.parent != nil {
		return fmt.Sprintf("%s/%s[%d]", p.parent.Name(), p.label, p.index)
	}
	return p.name
}

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Spawn creates a process that will begin executing fn at the current
// simulated time (after already-scheduled same-time events). fn runs in
// its own goroutine under the engine's handshake protocol.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.SpawnAfter(0, name, fn)
}

// SpawnAfter is Spawn with a start delay.
func (e *Engine) SpawnAfter(delay Duration, name string, fn func(*Proc)) *Proc {
	return e.spawn(delay, &Proc{name: name}, fn)
}

// spawn completes p (its name fields already set), starts its
// goroutine blocked on resume, and schedules its start after delay.
func (e *Engine) spawn(delay Duration, p *Proc, fn func(*Proc)) *Proc {
	p.eng = e
	p.resume = make(chan struct{})
	p.yield = make(chan struct{})
	p.wake = p.wakeNow
	e.procs++
	go p.run(fn)
	e.push(e.now+Time(delay), nil, p)
	return p
}

// run is a spawned process's goroutine: it waits for its first
// resume, runs fn and passes control on for good.
func (p *Proc) run(fn func(*Proc)) {
	<-p.resume
	fn(p)
	p.eng.procs--
	if p.inline {
		p.yield <- struct{}{}
	} else {
		p.eng.pass(nil, false)
	}
}

// child takes a finished Fork child off the engine's idle list, or
// starts a new one when the list is empty.
func (e *Engine) child() *Proc {
	if n := len(e.idle); n > 0 {
		c := e.idle[n-1]
		e.idle = e.idle[:n-1]
		return c
	}
	c := &Proc{eng: e, resume: make(chan struct{}), yield: make(chan struct{})}
	c.wake = c.wakeNow
	go c.loop()
	return c
}

// loop is a Fork child's goroutine. Each resume after Fork has set fn
// runs one body. The child then goes back on the idle list, counts
// itself out of its parent's join and, as the last child out, wakes
// the parent inline, and parks. The parent may fork again at once and
// take this child off the idle list before it has parked; that is safe
// because the park reads none of the fields Fork sets, and it may pop
// the child's new start event itself. A resume with fn nil is the
// engine retiring the child inline (see Engine.stop): it acknowledges
// and exits.
func (c *Proc) loop() {
	<-c.resume
	for c.fn != nil {
		c.fn(c)
		e, parent := c.eng, c.parent
		c.fn, c.parent = nil, nil
		e.procs--
		e.idle = append(e.idle, c)
		if parent.joins--; parent.joins == 0 {
			parent.wakeNow()
		}
		c.park()
	}
	c.yield <- struct{}{}
}

// wakeNow runs the process inline: the caller, a process or a
// callback, blocks until the process parks or finishes.
func (p *Proc) wakeNow() {
	p.inline = true
	p.resume <- struct{}{}
	<-p.yield
}

// park passes control on and blocks until the process is resumed: back
// to its waker if it was woken inline, else along the calendar (see
// Engine.pass). Must be called from the process goroutine.
func (p *Proc) park() {
	if !p.inline {
		p.eng.pass(p, false)
		return
	}
	p.inline = false
	p.yield <- struct{}{}
	<-p.resume
}

// Sleep suspends the process for d of simulated time. When p was not
// woken inline and its wake-up would be the very next event, Sleep just
// moves the clock and returns without parking (see the package
// comment). The pending-event comparison is strict: a same-time event
// is already queued ahead of the wake-up.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Proc %q sleeping negative duration %d", p.Name(), d))
	}
	if d == 0 {
		return
	}
	e := p.eng
	t := e.now + Time(d)
	if !p.inline && t <= e.limit && (len(e.events) == 0 || e.events[0].t > t) {
		e.now = t
		return
	}
	e.push(t, nil, p)
	p.park()
}

// WaitEvent suspends the process until wake is invoked by some event.
// It returns a wake function that may be called exactly once, from
// engine/event context (e.g. another process's Release, or a scheduled
// callback).
//
// Typical use:
//
//	wake := p.PrepareWait()
//	registerSomewhere(wake)
//	p.Wait()
//
// PrepareWait/Wait are split so the wake function can be registered
// before the process parks without racing: registration happens in the
// process's own execution slot, and the wake cannot fire until the
// process has parked, because nothing else runs concurrently.
func (p *Proc) PrepareWait() (wake func()) {
	return p.wake
}

// Wait parks the process until the function returned by PrepareWait is
// called.
func (p *Proc) Wait() { p.park() }

// Completion is a join counter: processes can wait until Done has been
// called n times. It is the simulation analogue of sync.WaitGroup.
type Completion struct {
	eng     *Engine
	pending int
	waiters []*Proc
}

// NewCompletion returns a Completion that completes after n calls to
// Done.
func NewCompletion(e *Engine, n int) *Completion {
	if n < 0 {
		panic("sim: NewCompletion with negative count")
	}
	return &Completion{eng: e, pending: n}
}

// Add increases the pending count by n.
func (c *Completion) Add(n int) { c.pending += n }

// Done decrements the pending count; when it reaches zero all waiting
// processes are woken in FIFO order.
func (c *Completion) Done() {
	c.pending--
	if c.pending < 0 {
		panic("sim: Completion.Done below zero")
	}
	if c.pending == 0 {
		ws := c.waiters
		c.waiters = nil
		for _, w := range ws {
			w.wakeNow()
		}
	}
}

// WaitFor parks p until the completion count reaches zero. If it is
// already zero, WaitFor returns immediately.
func (c *Completion) WaitFor(p *Proc) {
	if c.pending == 0 {
		return
	}
	c.waiters = append(c.waiters, p)
	p.park()
}

// Fork runs each fn as a child process at the current simulated time
// and parks p until all of them finish. It is the fundamental
// fan-out/fan-in primitive used to model parallel sub-operations
// (e.g. a RAID stripe write touching several member disks at once).
//
// Children come from the engine's pool of finished Fork children and
// go back to it when their fn returns, so a warm Fork allocates
// nothing. The join count is p's own, since a process is in at most
// one Fork at a time, and the last child out wakes p.
func Fork(p *Proc, name string, fns ...func(*Proc)) {
	if len(fns) == 0 {
		return
	}
	e := p.eng
	p.joins = len(fns)
	for i, fn := range fns {
		c := e.child()
		c.parent, c.label, c.index, c.fn = p, name, i, fn
		e.procs++
		e.push(e.now, nil, c)
	}
	p.park()
}
