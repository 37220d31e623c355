// Package ioreq defines the per-request context threaded through
// every layer of the simulated I/O stack. A Request carries what the
// bare (proc, offset, length) signatures could not: the operation
// class, the span collector, fault tags, and — centrally — a span
// stack stamped on the simulated clock. Access facts (mode, block
// size, rank, phase) come from the MPI-IO trace, the one event stream
// the trace package classifies. Each layer opens a span on its
// component's telemetry Recorder on entry and closes it on exit, so
// one interval feeds both the path profile and the component's
// counters: PushOn/Pop for a span that feeds no queue gauge,
// Enter/Exit for one that does, and Observe on either records on the
// span's recorder over the span's interval. A completed request knows
// exactly how long it spent in the MPI-IO library, the global
// filesystem, the local filesystem, the page cache, the RAID
// organization, the disks, and the network.
//
// The paper's evaluation phase infers the binding I/O level
// indirectly (measured rate ÷ characterized rate per level, the
// used-% table); spans measure it directly. The two must agree —
// telemetry.PathProfile, aggregated from popped spans by a Collector,
// is the ground truth against which the used-% verdict is checked.
package ioreq

import (
	"fmt"

	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// span is one open interval on a request's path. Spans form a tree:
// a child's [start, end] nests inside its parent's. covered/coverEnd
// incrementally accumulate the union of completed children, so the
// parent's self time (time not inside any child) is exact even when
// sim.Fork runs children in parallel. Every span belongs to its
// component's recorder, which gives it its level and name.
type span struct {
	parent *span
	rec    *telemetry.Recorder
	start  sim.Time

	coverEnd sim.Time     // right edge of the children union so far
	covered  sim.Duration // total length of the children union
	gauged   bool         // opened by Enter: counted in rec's queue-depth gauge
}

// remote reports whether s was opened beneath a global-filesystem
// span: work a file server's backend stack (local fs, cache, RAID,
// disks) performs on behalf of a remote request. The distinction
// keeps the span verdict comparable to the characterization, which
// measures the server-side stack as part of the network-FS level, not
// the compute node's local-FS level.
func (s *span) remote() bool {
	for a := s.parent; a != nil; a = a.parent {
		if a.rec.Level() == telemetry.LevelGlobalFS {
			return true
		}
	}
	return false
}

// Request is a per-request context. It wraps the simulated process
// executing the request, so layer methods take a *Request where they
// used to take a *sim.Proc. A Request is a lightweight view: WithProc
// creates sibling views with the same class and collector for sim.Fork
// children, giving each proc its own strictly-LIFO span stack while
// all spans aggregate into one tree.
type Request struct {
	p     *sim.Proc
	class telemetry.OpClass
	col   *Collector
	cur   *span
}

// New creates a request executed by p. The operation class is fixed
// at creation: it names what the application asked for, so
// lower-layer work done on its behalf (a read-modify-write inside
// RAID-5, a writeback forced by a read's eviction) is attributed to
// the operation that caused it.
func New(p *sim.Proc, class telemetry.OpClass) *Request {
	if p == nil {
		panic("ioreq: New with nil proc")
	}
	return &Request{p: p, class: class}
}

// Reader is shorthand for New(p, telemetry.ClassRead).
func Reader(p *sim.Proc) *Request { return New(p, telemetry.ClassRead) }

// Writer is shorthand for New(p, telemetry.ClassWrite).
func Writer(p *sim.Proc) *Request { return New(p, telemetry.ClassWrite) }

// Meta is shorthand for New(p, telemetry.ClassMeta).
func Meta(p *sim.Proc) *Request { return New(p, telemetry.ClassMeta) }

// SetCollector attaches the aggregation target for popped spans and
// fault tags. A nil collector (the default) discards both. Views
// made by WithProc keep the collector set when they were made.
func (r *Request) SetCollector(c *Collector) *Request {
	r.col = c
	return r
}

// Proc returns the simulated process executing this view of the
// request.
func (r *Request) Proc() *sim.Proc { return r.p }

// Now returns the current simulated time.
func (r *Request) Now() sim.Time { return r.p.Now() }

// Class returns the request's operation class.
func (r *Request) Class() telemetry.OpClass { return r.class }

// WithProc returns a view of the request executed by child. The view
// copies the request's class and collector; its span stack starts
// at the caller's current span, so spans the child pushes nest under
// the span that was open when the fork happened. Use at every
// sim.Fork fan-out that continues a request on child procs.
func (r *Request) WithProc(child *sim.Proc) *Request {
	return &Request{p: child, class: r.class, col: r.col, cur: r.cur}
}

// PushOn opens a span on rec, at rec's level, that feeds no queue
// gauge. Every layer entry point opens a span on its component's
// recorder (PushOn or Enter) and defers its close (Pop or Exit), so
// the open-span chain at any instant is the request's current position
// on the I/O path.
func (r *Request) PushOn(rec *telemetry.Recorder) { r.open(rec, false) }

// Push opens a span at level on a recorder of its own named comp.
//
// Deprecated: layers open spans on their component's recorder with
// PushOn. Push stays for the benchmark's span probe, and builds one
// recorder per call.
func (r *Request) Push(level telemetry.Level, comp string) {
	r.PushOn(telemetry.NewRecorder(nil, comp, level, 1))
}

// Enter opens a span on rec, at rec's level, and counts the request
// in rec's queue-depth gauge. Exit leaves the gauge and pops: one
// recording point per layer boundary for both the path profile and
// the component's counters.
func (r *Request) Enter(rec *telemetry.Recorder) {
	r.open(rec, true)
	rec.Enter()
}

func (r *Request) open(rec *telemetry.Recorder, gauged bool) {
	if rec == nil {
		panic("ioreq: span opened on a nil recorder")
	}
	r.cur = &span{parent: r.cur, rec: rec, start: r.p.Now(), gauged: gauged}
}

// Observe records ops operations of class moving bytes on the
// recorder of the open span, timed from the span's start to now. The
// class need not be the request's own: lower-layer work done on the
// request's behalf (a RAID-5 read-modify-write's reads) records as
// what it is.
func (r *Request) Observe(class telemetry.OpClass, ops, bytes int64) {
	s := r.cur
	if s == nil {
		panic("ioreq: Observe with no open span")
	}
	s.rec.Observe(class, ops, bytes, sim.Duration(r.p.Now()-s.start))
}

// Exit closes a span opened by Enter: the request leaves the
// recorder's queue-depth gauge and the span pops.
func (r *Request) Exit() {
	if r.cur == nil || !r.cur.gauged {
		panic("ioreq: Exit without a span opened by Enter")
	}
	r.cur.rec.Exit()
	r.Pop()
}

// Pop closes the current span, records it into the collector, and
// folds its interval into the parent's child-coverage union. Spans
// are strictly LIFO per proc view; the engine's one-runner-at-a-time
// handshake makes the shared parent update race-free.
func (r *Request) Pop() {
	s := r.cur
	if s == nil {
		panic("ioreq: Pop with no open span")
	}
	end := r.p.Now()
	dur := sim.Duration(end - s.start)
	self := dur - s.covered
	if self < 0 {
		// Cannot happen while children nest inside their parent; guard
		// so a future layer bug surfaces as a loud failure, not a
		// negative self time.
		panic(fmt.Sprintf("ioreq: span %s/%s self time negative", s.rec.Level(), s.rec.Component()))
	}
	r.col.record(s, r.class, dur, self)
	if par := s.parent; par != nil {
		if s.start >= par.coverEnd {
			par.covered += dur
		} else if end > par.coverEnd {
			par.covered += sim.Duration(end - par.coverEnd)
		}
		if end > par.coverEnd {
			par.coverEnd = end
		}
	}
	r.cur = s.parent
}

// Depth returns the number of open spans on this view's stack
// (diagnostics and tests).
func (r *Request) Depth() int {
	n := 0
	for s := r.cur; s != nil; s = s.parent {
		n++
	}
	return n
}

// Tag counts a named event against the request's collector — the
// fault plane uses it to mark requests that crossed a degraded
// component (slow disk, failed RAID member, stalled server, flapping
// link), so degraded-path traffic is visible in the PathProfile.
func (r *Request) Tag(name string) {
	r.col.tag(name)
}
