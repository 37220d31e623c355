// Package telemetry is the unified observability plane of the
// simulated I/O stack: a shared counter/histogram model recorded by
// every layer (device, raid, cache, fs, nfs, pfs, netsim, mpiio),
// snapshot-with-delta arithmetic for phase-interval measurement, and
// a JSON report format.
//
// The paper's core deliverable is a per-level view of the I/O path —
// characterized rate vs. measured rate at each level (Figs. 10–11,
// Tables III/IV). Darshan-style tooling (surveyed by Kunkel's "Tools
// for Analyzing Parallel I/O") shows that a uniform per-layer
// counter model is what makes cross-level bottleneck attribution
// composable; this package provides that model for the simulation.
//
// Recording is strictly passive: a Recorder never sleeps, acquires
// resources or schedules events, so instrumentation cannot perturb
// simulated time or event ordering.
package telemetry

import (
	"fmt"

	"ioeval/internal/sim"
)

// Level tags a component with its position on the I/O path. It
// deliberately mirrors (but does not import) core.Level: the three
// characterized levels of the paper plus the substrate layers below
// them, so snapshots can attribute time anywhere on the vertical
// path. core.Level maps onto this type via Level.TelemetryLevel.
type Level int

// I/O-path levels, application side first.
const (
	LevelLibrary  Level = iota // MPI-IO library (mpiio.World)
	LevelGlobalFS              // network/parallel filesystem clients and servers (nfs, pfs)
	LevelLocalFS               // local filesystem mounts (fs.Mount)
	LevelCache                 // page/buffer caches (cache.Cache)
	LevelBlock                 // device organizations (raid.Array)
	LevelDevice                // physical disks (device.Disk)
	LevelNetwork               // interconnect and NICs (netsim)
	LevelFault                 // fault-injection plane (internal/fault)
	LevelStore                 // characterization store (internal/store)
)

func (l Level) String() string {
	switch l {
	case LevelLibrary:
		return "library"
	case LevelGlobalFS:
		return "global-fs"
	case LevelLocalFS:
		return "local-fs"
	case LevelCache:
		return "cache"
	case LevelBlock:
		return "block"
	case LevelDevice:
		return "device"
	case LevelNetwork:
		return "network"
	case LevelFault:
		return "fault"
	case LevelStore:
		return "store"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// MarshalText renders the level as its name in JSON reports.
func (l Level) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText parses a level name.
func (l *Level) UnmarshalText(b []byte) error {
	for _, cand := range []Level{LevelLibrary, LevelGlobalFS, LevelLocalFS,
		LevelCache, LevelBlock, LevelDevice, LevelNetwork, LevelFault, LevelStore} {
		if cand.String() == string(b) {
			*l = cand
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown level %q", string(b))
}

// OpClass is the operation direction of a counter set.
type OpClass int

// Operation classes. Data-moving operations are Read or Write; Meta
// covers opens, closes, stats, syncs, flushes and commits.
const (
	ClassRead OpClass = iota
	ClassWrite
	ClassMeta
)

func (c OpClass) String() string {
	switch c {
	case ClassRead:
		return "read"
	case ClassWrite:
		return "write"
	case ClassMeta:
		return "meta"
	}
	return fmt.Sprintf("OpClass(%d)", int(c))
}

// NumBuckets is the fixed latency-histogram bucket count: decade
// buckets from <1µs to ≥1s.
const NumBuckets = 8

// bucketBounds[i] is the exclusive upper bound of bucket i; the last
// bucket is unbounded.
var bucketBounds = [NumBuckets - 1]sim.Duration{
	sim.Microsecond,
	10 * sim.Microsecond,
	100 * sim.Microsecond,
	sim.Millisecond,
	10 * sim.Millisecond,
	100 * sim.Millisecond,
	sim.Second,
}

// Histogram is a fixed-bucket latency histogram. Counts[i] holds the
// number of operations whose per-operation latency fell in bucket i.
type Histogram struct {
	Counts [NumBuckets]int64 `json:"counts"`
}

// observe adds n operations of per-op latency d.
func (h *Histogram) observe(d sim.Duration, n int64) {
	for i, bound := range bucketBounds {
		if d < bound {
			h.Counts[i] += n
			return
		}
	}
	h.Counts[NumBuckets-1] += n
}

// Total returns the number of recorded operations.
func (h Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Sub returns the bucket-wise difference h − prev.
func (h Histogram) Sub(prev Histogram) Histogram {
	var out Histogram
	for i := range h.Counts {
		out.Counts[i] = h.Counts[i] - prev.Counts[i]
	}
	return out
}

// OpCounters accumulates one operation class of a component.
type OpCounters struct {
	Ops   int64        `json:"ops"`
	Bytes int64        `json:"bytes"`
	Busy  sim.Duration `json:"busy_ns"` // cumulative time servicing this class
	Lat   Histogram    `json:"latency"` // per-operation latency distribution
}

// Sub returns the counter-wise difference o − prev.
func (o OpCounters) Sub(prev OpCounters) OpCounters {
	return OpCounters{
		Ops:   o.Ops - prev.Ops,
		Bytes: o.Bytes - prev.Bytes,
		Busy:  o.Busy - prev.Busy,
		Lat:   o.Lat.Sub(prev.Lat),
	}
}

// MeanLatency returns the mean per-operation service time.
func (o OpCounters) MeanLatency() sim.Duration {
	if o.Ops == 0 {
		return 0
	}
	return o.Busy / sim.Duration(o.Ops)
}

// Counters is the shared per-component counter model: ops, bytes,
// busy time and a latency histogram per operation class, plus queue
// depth and optional component-specific auxiliary counters.
type Counters struct {
	Read  OpCounters `json:"read"`
	Write OpCounters `json:"write"`
	Meta  OpCounters `json:"meta"`

	// QueueDepth is the number of requests inside the component at
	// observation time (a gauge); MaxQueueDepth is its high-water
	// mark since the start of the run.
	QueueDepth    int64 `json:"queue_depth"`
	MaxQueueDepth int64 `json:"max_queue_depth"`

	// Aux holds component-specific counters that do not fit the
	// shared model (cache hit bytes, RAID degraded reads, NFS lock
	// pairs, ...). Keys are snake_case.
	Aux map[string]int64 `json:"aux,omitempty"`
}

// Op returns the counters of one class.
func (c Counters) Op(class OpClass) OpCounters {
	switch class {
	case ClassRead:
		return c.Read
	case ClassWrite:
		return c.Write
	default:
		return c.Meta
	}
}

// TotalBusy returns the busy time summed over classes.
func (c Counters) TotalBusy() sim.Duration { return c.Read.Busy + c.Write.Busy + c.Meta.Busy }

// TotalBytes returns data bytes moved (read + write).
func (c Counters) TotalBytes() int64 { return c.Read.Bytes + c.Write.Bytes }

// TotalOps returns operations across all classes.
func (c Counters) TotalOps() int64 { return c.Read.Ops + c.Write.Ops + c.Meta.Ops }

// Sub returns the counter-wise difference c − prev. Monotonic
// counters (ops, bytes, busy, histograms, aux) subtract; gauges
// (QueueDepth) and high-water marks (MaxQueueDepth) keep c's value,
// since a difference of either is meaningless.
func (c Counters) Sub(prev Counters) Counters {
	out := Counters{
		Read:          c.Read.Sub(prev.Read),
		Write:         c.Write.Sub(prev.Write),
		Meta:          c.Meta.Sub(prev.Meta),
		QueueDepth:    c.QueueDepth,
		MaxQueueDepth: c.MaxQueueDepth,
	}
	if len(c.Aux) > 0 || len(prev.Aux) > 0 {
		out.Aux = map[string]int64{}
		for k, v := range c.Aux {
			out.Aux[k] = v - prev.Aux[k]
		}
		for k, v := range prev.Aux {
			if _, ok := c.Aux[k]; !ok {
				out.Aux[k] = -v // should not happen: aux keys only grow
			}
		}
	}
	return out
}

// Snapshot is the state of one component's counters at an instant (or
// over an interval, after Sub).
type Snapshot struct {
	Component string `json:"component"`
	Level     Level  `json:"level"`
	// Units is the component's capacity in service units (disk heads,
	// server threads, array members) used to normalize utilization.
	Units int64 `json:"units"`
	// At is the simulated time of the observation; Interval is the
	// measurement window ending at At (the full run for a raw
	// snapshot, the phase span for a delta).
	At       sim.Time     `json:"at_ns"`
	Interval sim.Duration `json:"interval_ns"`
	Counters Counters     `json:"counters"`
}

// Sub returns the interval delta s − prev: counters subtracted, the
// interval spanning (prev.At, s.At]. Both snapshots must come from
// the same component.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	if prev.Component != "" && prev.Component != s.Component {
		panic(fmt.Sprintf("telemetry: Sub across components %q and %q", s.Component, prev.Component))
	}
	out := s
	out.Interval = sim.Duration(s.At - prev.At)
	out.Counters = s.Counters.Sub(prev.Counters)
	return out
}

// Utilization returns the fraction of the component's capacity busy
// over the snapshot's interval (0 when no time has passed).
func (s Snapshot) Utilization() float64 {
	if s.Interval <= 0 || s.Units <= 0 {
		return 0
	}
	return s.Counters.TotalBusy().Seconds() / (s.Interval.Seconds() * float64(s.Units))
}

// Rate returns the class's transfer rate in bytes/second over the
// snapshot's interval.
func (s Snapshot) Rate(class OpClass) float64 {
	if s.Interval <= 0 {
		return 0
	}
	return float64(s.Counters.Op(class).Bytes) / s.Interval.Seconds()
}

// Probe is anything that can be observed: every instrumented
// component exposes its Recorder, which implements Probe.
type Probe interface {
	Snapshot() Snapshot
}

// Recorder accumulates Counters for one component. All layer
// packages record through Recorders, and every layer constructor
// builds its own, so a component is never without one.
type Recorder struct {
	eng       *sim.Engine
	component string
	level     Level
	units     int64

	c        Counters
	inFlight int64
}

// NewRecorder creates a recorder for a component with the given
// capacity units (≤0 is normalized to 1).
func NewRecorder(eng *sim.Engine, component string, level Level, units int64) *Recorder {
	if units <= 0 {
		units = 1
	}
	return &Recorder{eng: eng, component: component, level: level, units: units}
}

// Component returns the component name.
func (r *Recorder) Component() string { return r.component }

// Level returns the component's I/O-path level.
func (r *Recorder) Level() Level { return r.level }

// Observe records ops operations of class moving bytes in busy total
// service time. The latency histogram receives ops samples of the
// mean per-operation latency busy/ops (layers batching many small
// operations into one simulated event cannot time them individually).
func (r *Recorder) Observe(class OpClass, ops, bytes int64, busy sim.Duration) {
	if ops <= 0 {
		return
	}
	var o *OpCounters
	switch class {
	case ClassRead:
		o = &r.c.Read
	case ClassWrite:
		o = &r.c.Write
	default:
		o = &r.c.Meta
	}
	o.Ops += ops
	o.Bytes += bytes
	o.Busy += busy
	o.Lat.observe(busy/sim.Duration(ops), ops)
}

// Enter marks a request entering the component (queued or in
// service), maintaining the queue-depth gauge and high-water mark.
func (r *Recorder) Enter() {
	r.inFlight++
	r.c.QueueDepth = r.inFlight
	if r.inFlight > r.c.MaxQueueDepth {
		r.c.MaxQueueDepth = r.inFlight
	}
}

// Exit marks a request leaving the component.
func (r *Recorder) Exit() {
	r.inFlight--
	r.c.QueueDepth = r.inFlight
}

// Add increments an auxiliary counter.
func (r *Recorder) Add(key string, delta int64) {
	if r.c.Aux == nil {
		r.c.Aux = map[string]int64{}
	}
	r.c.Aux[key] += delta
}

// AuxVal returns the current value of an auxiliary counter.
func (r *Recorder) AuxVal(key string) int64 { return r.c.Aux[key] }

// Snapshot implements Probe: a copy of the counters stamped with the
// engine's current time. The interval of a raw snapshot runs from
// simulation start.
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{
		Component: r.component,
		Level:     r.level,
		Units:     r.units,
		Counters:  r.c,
	}
	if r.eng != nil {
		s.At = r.eng.Now()
		s.Interval = sim.Duration(s.At)
	}
	if len(r.c.Aux) > 0 {
		s.Counters.Aux = make(map[string]int64, len(r.c.Aux))
		for k, v := range r.c.Aux {
			s.Counters.Aux[k] = v
		}
	}
	return s
}
