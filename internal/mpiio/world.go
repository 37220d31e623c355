// Package mpiio models an MPI-IO-like parallel I/O library over the
// simulated cluster: a World of ranks placed on nodes, message
// passing and barriers over the communication network, and Files
// supporting independent and collective (two-phase, ROMIO-style
// collective buffering) operations against any fs.Interface — local
// mounts or NFS clients.
//
// This layer is where the paper's headline contrast lives: NAS BT-IO
// "full" uses collective buffering (few large contiguous writes by
// aggregator ranks) while "simple" issues millions of small strided
// independent operations.
package mpiio

import (
	"fmt"
	"math/bits"

	"ioeval/internal/ioreq"
	"ioeval/internal/netsim"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

var (
	kComputeNs     = telemetry.NewAuxKey("compute_ns")
	kCommNs        = telemetry.NewAuxKey("comm_ns")
	kCommBytes     = telemetry.NewAuxKey("comm_bytes")
	kBarrierNs     = telemetry.NewAuxKey("barrier_ns")
	kCollectiveOps = telemetry.NewAuxKey("collective_ops")
)

// Op identifies a traced operation kind.
type Op int

// Operation kinds reported to a Tracer.
const (
	OpWrite Op = iota
	OpRead
	OpWriteAll
	OpReadAll
	OpOpen
	OpClose
	OpSync
	OpCompute
	OpComm
	OpBarrier
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpWriteAll:
		return "write_all"
	case OpReadAll:
		return "read_all"
	case OpOpen:
		return "open"
	case OpClose:
		return "close"
	case OpSync:
		return "sync"
	case OpCompute:
		return "compute"
	case OpComm:
		return "comm"
	case OpBarrier:
		return "barrier"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsIO reports whether the op moves file data.
func (o Op) IsIO() bool {
	return o == OpWrite || o == OpRead || o == OpWriteAll || o == OpReadAll
}

// Event is one traced library call.
type Event struct {
	Rank   int
	Op     Op
	File   string
	Offset int64 // first byte touched (-1 when not applicable)
	Bytes  int64 // payload bytes
	Count  int   // number of application-level operations represented
	Stride int64 // constant stride between vector elements (0 if n/a)
	Span   int64 // file-range extent covered (last end - first offset)
	T0, T1 sim.Time
}

// Tracer receives events from the library. The trace package
// implements it; a nil tracer disables tracing.
type Tracer interface {
	Record(ev Event)
}

// World is the set of MPI ranks and their node placement.
//
//lint:ignore probeconform the recorder is injected by cluster.Assemble via SetTelemetry and registered there as LibRec, so the probe does reach the registry
type World struct {
	eng    *sim.Engine
	net    *netsim.Network
	nics   []*netsim.NIC // per rank, the NIC of its node on net
	tracer Tracer
	rec    *telemetry.Recorder
	col    *ioreq.Collector

	barrier genBarrier
}

// NewWorld creates a world of len(rankNodes) ranks; rankNodes[i] is
// the network node hosting rank i (must be attached to net).
func NewWorld(e *sim.Engine, net *netsim.Network, rankNodes []string) *World {
	if len(rankNodes) == 0 {
		panic("mpiio: empty world")
	}
	w := &World{eng: e, net: net, nics: make([]*netsim.NIC, len(rankNodes))}
	for i, node := range rankNodes {
		w.nics[i] = net.NIC(node)
	}
	w.barrier.n = len(rankNodes)
	w.rec = telemetry.NewRecorder(e, "mpiio", telemetry.LevelLibrary, int64(len(rankNodes)))
	return w
}

// SetTelemetry replaces the world's recorder (the cluster installs a
// registered one; standalone worlds keep the default).
func (w *World) SetTelemetry(r *telemetry.Recorder) {
	if r != nil {
		w.rec = r
	}
}

// Telemetry returns the library-level telemetry probe.
func (w *World) Telemetry() *telemetry.Recorder { return w.rec }

// SetCollector installs the span collector stamped on every request
// the library originates. A nil collector (the default) keeps requests
// span-silent.
func (w *World) SetCollector(c *ioreq.Collector) { w.col = c }

// Collector returns the installed span collector (possibly nil).
func (w *World) Collector() *ioreq.Collector { return w.col }

// req builds the per-request context for one library call: the
// operation class and the world's span collector.
func (w *World) req(p *sim.Proc, class telemetry.OpClass) *ioreq.Request {
	return ioreq.New(p, class).SetCollector(w.col)
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.nics) }

// Node returns the node hosting a rank.
func (w *World) Node(rank int) string { return w.nics[rank].Node() }

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.eng }

// SetTracer installs tr for all subsequent operations.
func (w *World) SetTracer(tr Tracer) { w.tracer = tr }

// Tracer returns the installed tracer (possibly nil).
func (w *World) Tracer() Tracer { return w.tracer }

func (w *World) trace(ev Event) {
	w.record(ev)
	if w.tracer != nil {
		w.tracer.Record(ev)
	}
}

// record maps a library event onto the telemetry plane: data ops by
// direction, open/close/sync as metadata, compute/comm/barrier as
// auxiliary time counters (they are application time, not I/O time).
func (w *World) record(ev Event) {
	busy := sim.Duration(ev.T1 - ev.T0)
	ops := int64(ev.Count)
	if ops <= 0 {
		ops = 1
	}
	switch ev.Op {
	case OpRead, OpReadAll:
		w.rec.Observe(telemetry.ClassRead, ops, ev.Bytes, busy)
	case OpWrite, OpWriteAll:
		w.rec.Observe(telemetry.ClassWrite, ops, ev.Bytes, busy)
	case OpOpen, OpClose, OpSync:
		w.rec.Observe(telemetry.ClassMeta, ops, 0, busy)
	case OpCompute:
		w.rec.Add(kComputeNs, int64(busy))
	case OpComm:
		w.rec.Add(kCommNs, int64(busy))
		w.rec.Add(kCommBytes, ev.Bytes)
	case OpBarrier:
		w.rec.Add(kBarrierNs, int64(busy))
	}
	if ev.Op == OpWriteAll || ev.Op == OpReadAll {
		w.rec.Add(kCollectiveOps, ops)
	}
}

// Compute models computation on a rank for d of simulated time.
func (w *World) Compute(p *sim.Proc, rank int, d sim.Duration) {
	t0 := p.Now()
	p.Sleep(d)
	w.trace(Event{Rank: rank, Op: OpCompute, Offset: -1, T0: t0, T1: p.Now()})
}

// Send models a point-to-point message of nb bytes. Communication is
// application time, not I/O: the request carrying it is collectorless,
// so its network span is discarded rather than attributed to the path.
func (w *World) Send(p *sim.Proc, fromRank, toRank int, nb int64) {
	t0 := p.Now()
	w.net.Transfer(ioreq.Meta(p), w.nics[fromRank], w.nics[toRank], nb)
	w.trace(Event{Rank: fromRank, Op: OpComm, Offset: -1, Bytes: nb, Count: 1, T0: t0, T1: p.Now()})
}

// Barrier blocks the rank until every rank has entered, then charges
// a dissemination-barrier cost of ceil(log2 n) network latencies.
func (w *World) Barrier(p *sim.Proc, rank int) {
	t0 := p.Now()
	w.barrier.wait(p)
	rounds := bits.Len(uint(w.Size() - 1))
	p.Sleep(sim.Duration(rounds) * 2 * w.net.Params().Latency)
	w.trace(Event{Rank: rank, Op: OpBarrier, Offset: -1, T0: t0, T1: p.Now()})
}

// genBarrier is a reusable generation-counting barrier.
type genBarrier struct {
	n, count int
	waiters  []func()
}

func (b *genBarrier) wait(p *sim.Proc) {
	b.count++
	if b.count == b.n {
		b.count = 0
		ws := b.waiters
		b.waiters = nil
		for _, wk := range ws {
			wk()
		}
		return
	}
	b.waiters = append(b.waiters, p.PrepareWait())
	p.Wait()
}
