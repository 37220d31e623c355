// Package spanbalance exercises the defer-shaped span rule: every
// Push/Enter must be followed, after nothing but further opens, by a
// defer that closes it with its own pair; any other close, and any
// open inside a loop body, is a finding. Every function is checked on
// its own, helpers included.
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
// is a finding of its own.
func (l *Layer) span(r *ioreq.Request) {
	r.Push(3, l.name) // want spanbalance "not closed by a defer"
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
	r.Enter(l.rec) // want spanbalance "not closed by a defer"
	if fail {
		return errFail
	}
	r.Exit() // want spanbalance "not a deferred close"
	return nil
}

// BadEnterDoubleExit exits twice on the fail path.
func (l *Layer) BadEnterDoubleExit(r *ioreq.Request, fail bool) {
	r.Enter(l.rec) // want spanbalance "not closed by a defer"
	if fail {
		r.Exit() // want spanbalance "not a deferred close"
	}
	r.Exit() // want spanbalance "not a deferred close"
}

// BadEnterPop closes an Enter span with Pop: the gauge never drops.
// The pairs differ, so both halves are findings.
func (l *Layer) BadEnterPop(r *ioreq.Request) {
	r.Enter(l.rec) // want spanbalance "not closed by a defer"
	defer r.Pop()  // want spanbalance "not a deferred close"
}

// BadManual closes by hand on both paths. Every path happens to
// balance, but the rule asks for the defer: a hand-placed close is
// one edit away from a leak.
func (l *Layer) BadManual(r *ioreq.Request, fail bool) error {
	r.Push(3, l.name) // want spanbalance "not closed by a defer"
	if fail {
		r.Pop() // want spanbalance "not a deferred close"
		return errFail
	}
	r.Pop() // want spanbalance "not a deferred close"
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

// GoodDeferredLit opens two spans and closes both through one
// deferred literal.
func (l *Layer) GoodDeferredLit(r *ioreq.Request) {
	r.Push(3, l.name)
	l.rec.Enter()
	defer func() {
		l.rec.Exit()
		r.Pop()
	}()
}

// GoodTwoRuns defers each close right after its own open.
func (l *Layer) GoodTwoRuns(r *ioreq.Request) {
	r.Push(3, l.name)
	defer r.Pop()
	l.rec.Enter()
	defer l.rec.Exit()
}

// BadSwappedDefers closes two opens with two defers: only the first
// defer follows the opens, so the outer span and the second defer
// are findings.
func (l *Layer) BadSwappedDefers(r *ioreq.Request) {
	r.Push(3, l.name) // want spanbalance "not closed by a defer"
	l.rec.Enter()
	defer l.rec.Exit()
	defer r.Pop() // want spanbalance "not a deferred close"
}

// BadNestedClose closes inside a deferred literal, but not as a
// top-level statement of it.
func (l *Layer) BadNestedClose(r *ioreq.Request, ok bool) {
	r.Push(3, l.name) // want spanbalance "not closed by a defer"
	defer func() {
		if ok {
			r.Pop() // want spanbalance "not a deferred close"
		}
	}()
}

// GoodCase opens and defers inside a switch case.
func (l *Layer) GoodCase(r *ioreq.Request, kind int) {
	switch kind {
	case 1:
		r.Enter(l.rec)
		defer r.Exit()
	}
}

// BadEarlyReturn leaks the span on the error path.
func (l *Layer) BadEarlyReturn(r *ioreq.Request, fail bool) error {
	r.Push(3, l.name) // want spanbalance "not closed by a defer"
	if fail {
		return errFail
	}
	r.Pop() // want spanbalance "not a deferred close"
	return nil
}

// BadPanicFirst can panic before the defer is scheduled, so the
// unwind path leaks the span.
func (l *Layer) BadPanicFirst(r *ioreq.Request, bad bool) {
	r.Push(3, l.name) // want spanbalance "not closed by a defer"
	if bad {
		panic("boom")
	}
	defer r.Pop() // want spanbalance "not a deferred close"
}

// BadDoubleClose pops twice on the fail path.
func (l *Layer) BadDoubleClose(r *ioreq.Request, fail bool) {
	r.Push(3, l.name) // want spanbalance "not closed by a defer"
	if fail {
		r.Pop() // want spanbalance "not a deferred close"
	}
	r.Pop() // want spanbalance "not a deferred close"
}

// BadLoop opens inside the loop body without closing it: the depth
// grows with the trip count.
func (l *Layer) BadLoop(r *ioreq.Request, n int) {
	for i := 0; i < n; i++ {
		r.Push(3, l.name) // want spanbalance "inside a loop" want spanbalance "not closed by a defer"
	}
}

// BadRangeDefer defers the close inside a range body: every span
// stays open until the function returns.
func (l *Layer) BadRangeDefer(r *ioreq.Request, names []string) {
	for _, name := range names {
		r.Push(3, name) // want spanbalance "inside a loop"
		defer r.Pop()
	}
}

// GoodLoopLit gives each iteration its own function, whose defer
// closes the span before the next iteration opens one.
func (l *Layer) GoodLoopLit(r *ioreq.Request, n int) {
	for i := 0; i < n; i++ {
		func() {
			r.Push(3, l.name)
			defer r.Pop()
		}()
	}
}

// BadGauge raises the concurrency gauge and skips the Exit on the
// error path.
func (l *Layer) BadGauge(fail bool) error {
	l.rec.Enter() // want spanbalance "not closed by a defer"
	if fail {
		return errFail
	}
	l.rec.Exit() // want spanbalance "not a deferred close"
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

// BadLit leaks inside a returned closure: the literal is checked as
// a function of its own.
func (l *Layer) BadLit(r *ioreq.Request) func() {
	return func() {
		r.Push(3, l.name) // want spanbalance "not closed by a defer"
	}
}
