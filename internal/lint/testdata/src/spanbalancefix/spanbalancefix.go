// Package spanbalancefix holds only span leaks whose suggested fix —
// inserting `defer <subject>.<Close>()` right after the open — fully
// resolves the finding. The fix test applies every fix and asserts
// the rewritten package is gofmt-clean and re-lints with zero
// findings.
package spanbalancefix

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

// LeakDirect never closes the span it opens.
func (l *Layer) LeakDirect(r *ioreq.Request, n int64) int64 {
	r.Push(3, l.name) // want spanbalance "not closed by a defer"
	return n
}

// LeakEnter opens a span on the recorder and never exits, on either
// path.
func (l *Layer) LeakEnter(r *ioreq.Request, fail bool) error {
	r.Enter(l.rec) // want spanbalance "not closed by a defer"
	if fail {
		return errFail
	}
	return nil
}

// LeakGauge raises the concurrency gauge and forgets to lower it.
func (l *Layer) LeakGauge(n int) int {
	l.rec.Enter() // want spanbalance "not closed by a defer"
	return n * 2
}
