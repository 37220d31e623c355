// Package trace is the simulation analogue of the paper's PAS2P
// tracing extension (libpas2p_io.so): it captures every MPI-IO-level
// event, derives the application's I/O characterization (the paper's
// Tables II, V and VIII — operation counts, block sizes, opens,
// processes), detects the application's repetitive I/O phases with
// their weights, and renders Jumpshot-style timelines (Figs. 8 and
// 16).
package trace

import (
	"fmt"
	"sort"

	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
)

// AccessMode classifies a phase's access pattern, the key the
// methodology uses to search characterized performance tables.
type AccessMode int

// Access modes per the paper's Table I.
const (
	Sequential AccessMode = iota
	Strided
	Random
)

func (m AccessMode) String() string {
	switch m {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	}
	return fmt.Sprintf("AccessMode(%d)", int(m))
}

// Tracer records mpiio events. It implements mpiio.Tracer.
type Tracer struct {
	events []mpiio.Event
}

var _ mpiio.Tracer = (*Tracer)(nil)

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record implements mpiio.Tracer.
func (t *Tracer) Record(ev mpiio.Event) { t.events = append(t.events, ev) }

// Events returns the raw event log in capture order.
func (t *Tracer) Events() []mpiio.Event { return t.events }

// Reset discards all captured events.
func (t *Tracer) Reset() { t.events = nil }

// BlockSizeCount is one observed operation size and its frequency.
type BlockSizeCount struct {
	Bytes int64
	Count int64
}

// Profile is the application characterization in the paper's table
// shape (Tables II, V, VIII).
type Profile struct {
	NumProcs  int
	NumFiles  int
	NumReads  int64 // application-level read operations
	NumWrites int64
	NumOpens  int64
	NumCloses int64

	BytesRead    int64
	BytesWritten int64

	// Distinct operation sizes, most frequent first (the paper reports
	// e.g. "1.56KB and 1.6KB" for BT-IO simple).
	ReadBlockSizes  []BlockSizeCount
	WriteBlockSizes []BlockSizeCount

	// Wall-clock style aggregates over the traced run.
	ExecTime sim.Duration // first event start to last event end
	IOTime   sim.Duration // max per-rank sum of I/O event durations
}

// Profile derives the characterization from the captured events.
func (t *Tracer) Profile() Profile {
	var p Profile
	ranks := map[int]bool{}
	files := map[string]bool{}
	readSizes := map[int64]int64{}
	writeSizes := map[int64]int64{}
	ioTime := map[int]sim.Duration{}
	var tMin, tMax sim.Time
	first := true

	for _, ev := range t.events {
		ranks[ev.Rank] = true
		if ev.File != "" {
			files[ev.File] = true
		}
		if first || ev.T0 < tMin {
			tMin = ev.T0
		}
		if first || ev.T1 > tMax {
			tMax = ev.T1
		}
		first = false
		switch ev.Op {
		case mpiio.OpOpen:
			p.NumOpens += int64(ev.Count)
		case mpiio.OpClose:
			p.NumCloses += int64(ev.Count)
		case mpiio.OpRead, mpiio.OpReadAll:
			p.NumReads += int64(ev.Count)
			p.BytesRead += ev.Bytes
			readSizes[opSize(ev)] += int64(ev.Count)
			ioTime[ev.Rank] += sim.Duration(ev.T1 - ev.T0)
		case mpiio.OpWrite, mpiio.OpWriteAll:
			p.NumWrites += int64(ev.Count)
			p.BytesWritten += ev.Bytes
			writeSizes[opSize(ev)] += int64(ev.Count)
			ioTime[ev.Rank] += sim.Duration(ev.T1 - ev.T0)
		}
	}
	p.NumProcs = len(ranks)
	p.NumFiles = len(files)
	p.ReadBlockSizes = sortedSizes(readSizes)
	p.WriteBlockSizes = sortedSizes(writeSizes)
	if !first {
		p.ExecTime = sim.Duration(tMax - tMin)
	}
	for _, d := range ioTime {
		if d > p.IOTime {
			p.IOTime = d
		}
	}
	return p
}

// opSize is the per-operation payload of an event (vector events
// carry Count operations totalling Bytes).
func opSize(ev mpiio.Event) int64 {
	if ev.Count <= 1 {
		return ev.Bytes
	}
	return ev.Bytes / int64(ev.Count)
}

func sortedSizes(m map[int64]int64) []BlockSizeCount {
	out := make([]BlockSizeCount, 0, len(m))
	for b, c := range m {
		out = append(out, BlockSizeCount{Bytes: b, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Bytes < out[j].Bytes
	})
	return out
}

// Phase is one detected I/O phase of a rank: a maximal run of
// same-kind I/O events uninterrupted by compute, communication or
// barriers.
type Phase struct {
	Kind       mpiio.Op // OpWrite or OpRead (collectives normalized)
	Ops        int64
	Bytes      int64
	Mode       AccessMode
	Start, End sim.Time
}

// Duration returns the phase's wall time.
func (ph Phase) Duration() sim.Duration { return sim.Duration(ph.End - ph.Start) }

// TransferRate returns the phase's achieved rate in bytes/second.
func (ph Phase) TransferRate() float64 {
	d := ph.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(ph.Bytes) / d
}

// Phases detects the I/O phases of one rank in event order.
func (t *Tracer) Phases(rank int) []Phase {
	var phases []Phase
	var cur *Phase
	var lastEnd int64 = -1 // last byte offset+len, for mode detection
	flush := func() {
		if cur != nil {
			phases = append(phases, *cur)
			cur = nil
		}
	}
	for _, ev := range t.events {
		if ev.Rank != rank {
			continue
		}
		switch step, kind := phaseStepOf(ev.Op); step {
		case stepData:
			mode := classify(ev, lastEnd)
			if cur == nil || cur.Kind != kind {
				flush()
				cur = &Phase{Kind: kind, Mode: mode, Start: ev.T0}
			} else if mode == Strided && cur.Mode == Sequential {
				// Upgrade: a strided vector inside the phase makes the
				// phase strided.
				cur.Mode = Strided
			}
			cur.Ops += int64(ev.Count)
			cur.Bytes += ev.Bytes
			cur.End = ev.T1
			lastEnd = ev.Offset + ev.Bytes
		case stepBoundary:
			flush()
			lastEnd = -1
		}
	}
	flush()
	return phases
}

// phaseStep is how one event moves phase detection.
type phaseStep int

const (
	stepData     phaseStep = iota // data op: extends or starts a phase of its kind
	stepNeutral                   // open, sync: neither extends nor ends a phase
	stepBoundary                  // compute, comm, barrier, close: ends the phase
)

// phaseStepOf classifies op for phase detection, the one rule both
// Tracer.Phases and PhaseSnapshotter apply. For data ops it also
// returns the phase kind, with collectives folded into OpRead/OpWrite.
func phaseStepOf(op mpiio.Op) (phaseStep, mpiio.Op) {
	switch op {
	case mpiio.OpRead, mpiio.OpReadAll:
		return stepData, mpiio.OpRead
	case mpiio.OpWrite, mpiio.OpWriteAll:
		return stepData, mpiio.OpWrite
	case mpiio.OpOpen, mpiio.OpSync:
		return stepNeutral, 0
	}
	return stepBoundary, 0
}

// classify derives an access mode for a single event given the end of
// the previous I/O in the same phase. Vector events are strided when
// they cover a file extent substantially larger than their payload
// (scattered records with gaps) or carry a non-unit constant stride.
func classify(ev mpiio.Event, lastEnd int64) AccessMode {
	if ev.Count > 1 {
		if ev.Stride != 0 && ev.Stride != opSize(ev) {
			return Strided
		}
		if ev.Span > ev.Bytes+ev.Bytes/2 {
			return Strided
		}
		return Sequential
	}
	if lastEnd >= 0 && ev.Offset != lastEnd {
		return Strided
	}
	return Sequential
}

// SignatureEntry is a repeated phase pattern with its weight — the
// PAS2P notion of "significant phases and their weights".
type SignatureEntry struct {
	Phase  Phase // representative (first occurrence; Start/End of it)
	Weight int   // number of repetitions
}

// Signature groups a rank's phases into repeated patterns: phases
// with the same kind, mode, op count and byte count (within 1%) are
// the same pattern.
func (t *Tracer) Signature(rank int) []SignatureEntry {
	var sig []SignatureEntry
	for _, ph := range t.Phases(rank) {
		matched := false
		for i := range sig {
			s := &sig[i]
			if s.Phase.Kind == ph.Kind && s.Phase.Mode == ph.Mode &&
				s.Phase.Ops == ph.Ops && within1pct(s.Phase.Bytes, ph.Bytes) {
				s.Weight++
				matched = true
				break
			}
		}
		if !matched {
			sig = append(sig, SignatureEntry{Phase: ph, Weight: 1})
		}
	}
	return sig
}

func within1pct(a, b int64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d*100 <= a
}
