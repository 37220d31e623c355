package trace

import (
	"fmt"

	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// PhaseSnapshotter is an mpiio.Tracer that, in addition to forwarding
// every event to an inner tracer, snapshots a telemetry registry at
// the phase boundaries of one observer rank — giving each application
// phase (Tables III/IV/VIII) measured per-level counters instead of
// run-wide averages.
//
// Boundary classification is Tracer.Phases's rule (phaseStepOf): a
// phase is a maximal run of same-kind I/O events; compute,
// communication, barriers and closes end it; opens and syncs are
// neutral. Because events are reported at their end time, a boundary
// snapshot is taken at the end of the event that revealed the
// boundary, so that event's own time smears into the interval it
// closes — the price of online detection.
//
// The emitted intervals are contiguous from t=0 to the last Finish or
// boundary: with monotonic counters, the per-component deltas of all
// intervals sum exactly to the run totals.
type PhaseSnapshotter struct {
	eng   *sim.Engine
	reg   *telemetry.Registry
	inner mpiio.Tracer
	rank  int

	prev      []telemetry.Snapshot
	prevAt    sim.Time
	inPhase   bool
	curKind   mpiio.Op
	nPhases   int
	intervals []telemetry.PhaseInterval
}

var _ mpiio.Tracer = (*PhaseSnapshotter)(nil)

// NewPhaseSnapshotter wraps inner (which may be nil), snapshotting
// reg at the phase boundaries of the given observer rank.
func NewPhaseSnapshotter(eng *sim.Engine, reg *telemetry.Registry, inner mpiio.Tracer, rank int) *PhaseSnapshotter {
	return &PhaseSnapshotter{eng: eng, reg: reg, inner: inner, rank: rank}
}

// Record implements mpiio.Tracer.
func (ps *PhaseSnapshotter) Record(ev mpiio.Event) {
	if ps.inner != nil {
		ps.inner.Record(ev)
	}
	if ev.Rank != ps.rank {
		return
	}
	switch step, kind := phaseStepOf(ev.Op); step {
	case stepData:
		if ps.inPhase && kind != ps.curKind {
			ps.emit(ps.phaseLabel(), ps.phaseKind())
		}
		if !ps.inPhase || kind != ps.curKind {
			ps.inPhase = true
			ps.curKind = kind
			ps.nPhases++
		}
	case stepBoundary:
		if ps.inPhase {
			ps.emit(ps.phaseLabel(), ps.phaseKind())
			ps.inPhase = false
		}
	}
}

func (ps *PhaseSnapshotter) phaseLabel() string {
	return fmt.Sprintf("phase-%d", ps.nPhases)
}

func (ps *PhaseSnapshotter) phaseKind() string {
	if ps.curKind == mpiio.OpRead {
		return "read"
	}
	return "write"
}

// emit closes the interval [prevAt, now] with the registry's current
// deltas. Zero-length intervals are skipped without consuming the
// pending counters, which then roll into the next interval.
func (ps *PhaseSnapshotter) emit(label, kind string) {
	now := ps.eng.Now()
	if now == ps.prevAt {
		return
	}
	cur := ps.reg.Snapshots()
	snaps := cur
	if ps.prev != nil {
		snaps = telemetry.Sub(cur, ps.prev)
	}
	ps.intervals = append(ps.intervals, telemetry.PhaseInterval{
		Label: label,
		Kind:  kind,
		Start: ps.prevAt,
		End:   now,
		Snaps: snaps,
	})
	ps.prev = cur
	ps.prevAt = now
}

// Finish closes the trailing interval (the time after the last
// detected boundary) and returns all intervals. Safe to call when no
// time has passed since the last boundary.
func (ps *PhaseSnapshotter) Finish() []telemetry.PhaseInterval {
	if ps.inPhase {
		ps.emit(ps.phaseLabel(), ps.phaseKind())
		ps.inPhase = false
	} else {
		ps.emit("tail", "")
	}
	return ps.intervals
}

// Intervals returns the intervals emitted so far.
func (ps *PhaseSnapshotter) Intervals() []telemetry.PhaseInterval { return ps.intervals }
