package device

import "ioeval/internal/ioreq"

// Run is one extent of a vectored request. It is an alias of
// ioreq.Vec: the same extents flow through every layer without
// conversion.
type Run = ioreq.Vec

// RunDev is an optional extension of BlockDev for devices that can
// service many extents in a single call. The page cache implements it
// to keep simulation event counts bounded when applications issue
// millions of small strided operations; plain disks and arrays fall
// back to per-run calls via ReadRuns/WriteRuns helpers.
type RunDev interface {
	BlockDev
	ReadRuns(r *ioreq.Request, runs []Run)
	WriteRuns(r *ioreq.Request, runs []Run)
}

// ReadRuns reads every run from dev, using the vectored fast path when
// available.
func ReadRuns(r *ioreq.Request, dev BlockDev, runs []Run) {
	if rd, ok := dev.(RunDev); ok {
		rd.ReadRuns(r, runs)
		return
	}
	for _, run := range runs {
		dev.ReadAt(r, run.Off, run.Len)
	}
}

// WriteRuns writes every run to dev, using the vectored fast path when
// available.
func WriteRuns(r *ioreq.Request, dev BlockDev, runs []Run) {
	if rd, ok := dev.(RunDev); ok {
		rd.WriteRuns(r, runs)
		return
	}
	for _, run := range runs {
		dev.WriteAt(r, run.Off, run.Len)
	}
}
