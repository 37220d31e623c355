package bench

import (
	"fmt"
	"math"

	"ioeval/internal/cluster"
	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/workload"
	"ioeval/internal/workload/synth"
)

// IOR and b_eff_io are synth spec generators: each measurement is a
// spec run through synth's rank loop, timed from the library events
// the run traces.

// rateWindows is the mpiio.Tracer that folds a benchmark run's library
// events into the aggregate windows IOR and b_eff_io time: each start
// is the earliest T0 of its kind, each end the latest T1.
type rateWindows struct {
	firstOpen, rank0Write, firstRead sim.Time
	writeEnd, readEnd                sim.Time
	wrote, read                      int64
}

func (w *rateWindows) Record(ev mpiio.Event) {
	switch ev.Op {
	case mpiio.OpOpen:
		w.firstOpen = min(w.firstOpen, ev.T0)
	case mpiio.OpWrite, mpiio.OpWriteAll:
		if ev.Rank == 0 {
			w.rank0Write = min(w.rank0Write, ev.T0)
		}
		w.writeEnd = max(w.writeEnd, ev.T1)
		w.wrote += ev.Bytes
	case mpiio.OpRead, mpiio.OpReadAll:
		w.firstRead = min(w.firstRead, ev.T0)
		w.readEnd = max(w.readEnd, ev.T1)
		w.read += ev.Bytes
	}
}

// runSpec compiles and runs one benchmark spec, rank 0 calling prologue
// before its opens, and checks that the library moved every byte the
// spec declares.
func runSpec(c *cluster.Cluster, spec *synth.Spec, prologue func(*sim.Proc)) (*rateWindows, error) {
	never := sim.Time(math.MaxInt64)
	win := &rateWindows{firstOpen: never, rank0Write: never, firstRead: never}
	app, err := synth.Compile(spec)
	var res workload.Result
	if err == nil {
		res, err = app.RunWithPrologue(c, win, prologue)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	read, written := spec.DeclaredBytes()
	if win.wrote != res.BytesWritten || win.read != res.BytesRead || written != res.BytesWritten || read != res.BytesRead {
		return nil, fmt.Errorf("%s: moved %d written / %d read bytes, want %d / %d",
			spec.Name, res.BytesWritten, res.BytesRead, written, read)
	}
	return win, nil
}

// rate is the aggregate bandwidth of n bytes over [from, to], or 0 for
// an empty window.
func rate(n int64, from, to sim.Time) float64 {
	if d := sim.Duration(to - from).Seconds(); d > 0 {
		return float64(n) / d
	}
	return 0
}
