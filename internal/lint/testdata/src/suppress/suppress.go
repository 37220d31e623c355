// Package suppress exercises the //lint:ignore mechanism: a
// well-formed directive silences the finding on the next (or same)
// line, a directive naming another check does not, and a directive
// without a reason is itself reported.
package suppress

import "time"

func record(ns int64) error { return nil }

// Stamp's wall-clock read is silenced by the directive above it.
func Stamp() int64 {
	//lint:ignore determinism fixture: the wall-clock read is the point of this test
	return time.Now().UnixNano()
}

// Inline is silenced by a same-line directive.
func Inline() int64 {
	return time.Now().UnixNano() //lint:ignore determinism fixture: inline form
}

// WrongCheck is NOT silenced: the directive names another check.
func WrongCheck() int64 {
	//lint:ignore spanbalance this reason matches a different analyzer
	return time.Now().UnixNano() // unsuppressed-wrong-check
}

// Malformed carries a reason-less directive, which is a finding in
// its own right, and does not silence the line below it.
func Malformed() int64 {
	//lint:ignore determinism
	return time.Now().UnixNano() // unsuppressed-malformed
}

// FarAway is NOT silenced: the directive is two lines up — and since
// it therefore suppresses nothing, the directive itself is reported
// as unused.
func FarAway() int64 {
	//lint:ignore determinism fixture: too far from the finding

	return time.Now().UnixNano() // unsuppressed-far-away
}

// MultiFinding has two findings of different checks on one line; the
// trailing directive silences only the named check (errcheck) and
// leaves the determinism finding standing.
func MultiFinding() {
	record(time.Now().UnixNano()) //lint:ignore errcheck fixture: the dropped error is deliberate, the wall clock is the finding under test
}
