// Package spanbalance exercises the CFG-based span-balance analyzer:
// every Push/Enter must reach its own Pop/Exit on every control-flow
// path, with defers credited only on paths that actually schedule
// them. Every function is checked on its own, helpers included.
package spanbalance

import (
	"errors"

	"fixture/internal/ioreq"
	"fixture/internal/telemetry"
)

var errFail = errors.New("fail")

// Layer is a fixture component.
type Layer struct {
	name string
	rec  *telemetry.Recorder
}

// span is a push-only helper: it leaves the span it opens open, so it
// is a finding of its own; callers' pops are checked against nothing.
func (l *Layer) span(r *ioreq.Request) {
	r.Push(3, l.name) // want spanbalance "not closed on every path"
}

// GoodDefer is the idiomatic shape: open, deferred close.
func (l *Layer) GoodDefer(r *ioreq.Request, n int64) int64 {
	r.Push(3, l.name)
	defer r.Pop()
	return n
}

// GoodEnter opens the span on the component's recorder and defers
// its Exit.
func (l *Layer) GoodEnter(r *ioreq.Request, fail bool) error {
	r.Enter(l.rec)
	defer r.Exit()
	if fail {
		return errFail
	}
	return nil
}

// BadEnterEarlyReturn skips the Exit on the error path.
func (l *Layer) BadEnterEarlyReturn(r *ioreq.Request, fail bool) error {
	r.Enter(l.rec) // want spanbalance "not closed on every path"
	if fail {
		return errFail
	}
	r.Exit()
	return nil
}

// BadEnterDoubleExit exits twice on the fail path.
func (l *Layer) BadEnterDoubleExit(r *ioreq.Request, fail bool) {
	r.Enter(l.rec)
	if fail {
		r.Exit()
	}
	r.Exit() // want spanbalance "not open on every path reaching this point"
}

// BadEnterPop closes an Enter span with Pop: the gauge never drops.
// Each pair is balanced on its own, so both halves are findings.
func (l *Layer) BadEnterPop(r *ioreq.Request) {
	r.Enter(l.rec) // want spanbalance "not closed on every path"
	defer r.Pop()  // want spanbalance "closes more spans on r than it opens"
}

// GoodManual closes explicitly on both paths.
func (l *Layer) GoodManual(r *ioreq.Request, fail bool) error {
	r.Push(3, l.name)
	if fail {
		r.Pop()
		return errFail
	}
	r.Pop()
	return nil
}

// GoodPanic panics after the defer is scheduled: defers run during
// the unwind, so the span still closes.
func (l *Layer) GoodPanic(r *ioreq.Request, bad bool) {
	r.Enter(l.rec)
	defer r.Exit()
	if bad {
		panic("boom")
	}
}

// GoodDeferredLit closes through a deferred literal.
func (l *Layer) GoodDeferredLit(r *ioreq.Request) {
	r.Push(3, l.name)
	defer func() {
		l.rec.Exit()
		r.Pop()
	}()
	l.rec.Enter()
}

// BadEarlyReturn leaks the span on the error path.
func (l *Layer) BadEarlyReturn(r *ioreq.Request, fail bool) error {
	r.Push(3, l.name) // want spanbalance "not closed on every path"
	if fail {
		return errFail
	}
	r.Pop()
	return nil
}

// BadPanicFirst can panic before the defer is scheduled, so the
// unwind path leaks the span.
func (l *Layer) BadPanicFirst(r *ioreq.Request, bad bool) {
	r.Push(3, l.name) // want spanbalance "not closed on every path"
	if bad {
		panic("boom")
	}
	defer r.Pop()
}

// BadDoubleClose pops twice on the fail path.
func (l *Layer) BadDoubleClose(r *ioreq.Request, fail bool) {
	r.Push(3, l.name)
	if fail {
		r.Pop()
	}
	r.Pop() // want spanbalance "not open on every path reaching this point"
}

// BadLoop opens inside the loop body without closing in the same
// iteration: the depth grows with the trip count, and the paths that
// exit early leave spans open.
func (l *Layer) BadLoop(r *ioreq.Request, n int) {
	for i := 0; i < n; i++ {
		r.Push(3, l.name) // want spanbalance "inside a loop" want spanbalance "not closed on every path"
	}
}

// BadGauge raises the concurrency gauge and skips the Exit on the
// error path.
func (l *Layer) BadGauge(fail bool) error {
	l.rec.Enter() // want spanbalance "not closed on every path"
	if fail {
		return errFail
	}
	l.rec.Exit()
	return nil
}

// GoodLit opens and closes inside a non-deferred literal: the
// literal is its own scope and balances.
func (l *Layer) GoodLit(r *ioreq.Request) func() {
	return func() {
		r.Push(3, l.name)
		defer r.Pop()
	}
}

// BadLit leaks inside a returned closure: the literal's own CFG is
// checked.
func (l *Layer) BadLit(r *ioreq.Request) func() {
	return func() {
		r.Push(3, l.name) // want spanbalance "not closed on every path"
	}
}
