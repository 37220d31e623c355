package seedflow

import "time"

// The cases below launder a wall-clock value through locals,
// arithmetic and helpers before it reaches a report sink. None of the
// sinks is a finding: the clock is caught once, where it is read, and
// everything derived from it goes with that read.

var observed []float64

// observe stands in for a report-plane sink.
func observe(v float64) { observed = append(observed, v) }

// wallStamp is the one source every laundering case below shares.
func wallStamp() float64 {
	return float64(time.Now().UnixNano()) // want determinism "time.Now"
}

// launderedStamp hides the read behind a local and a helper.
func launderedStamp() float64 {
	v := wallStamp()
	return passthrough(v)
}

func passthrough(v float64) float64 { return v }

// record forwards its parameter to the sink.
func record(v float64) { observe(v) }

// LaunderDirect records the clock outright.
func LaunderDirect() { observe(wallStamp()) }

// LaunderHelpers records the clock through two helpers.
func LaunderHelpers() { observe(passthrough(launderedStamp())) }

// LaunderAssigned records the clock through locals and arithmetic.
func LaunderAssigned() {
	t := wallStamp()
	u := t/1e9 + 1
	observe(u)
}

// LaunderSinkParam reaches the sink inside a callee.
func LaunderSinkParam() { record(wallStamp()) }
