package core

import (
	"fmt"

	"ioeval/internal/cluster"
	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
	"ioeval/internal/trace"
	"ioeval/internal/workload"
)

// Measurement is one application-side observation: the transfer rate
// the application achieved for an operation type, with the access
// pattern metadata the table search needs (the inputs of Fig. 10).
type Measurement struct {
	Op        OpType
	BlockSize int64
	Access    AccessType
	Mode      trace.AccessMode
	Rate      float64 // aggregate bytes/second across ranks
	Ops       int64
	Bytes     int64
}

// MeasurementsFromTrace derives per-operation-type measurements from
// a captured trace: for each direction, the dominant block size and
// access mode, and the aggregate rate (total bytes over the slowest
// rank's cumulative time in that direction — ranks run in parallel).
func MeasurementsFromTrace(tr *trace.Tracer, access AccessType) []Measurement {
	type acc struct {
		bytes   int64
		ops     int64
		perRank map[int]sim.Duration
		sizes   map[int64]int64
		modes   map[trace.AccessMode]int64
	}
	newAcc := func() *acc {
		return &acc{perRank: map[int]sim.Duration{}, sizes: map[int64]int64{}, modes: map[trace.AccessMode]int64{}}
	}
	accs := map[OpType]*acc{Read: newAcc(), Write: newAcc()}

	ranks := map[int]bool{}
	for _, ev := range tr.Events() {
		ranks[ev.Rank] = true
	}
	for rank := range ranks {
		for _, ph := range tr.Phases(rank) {
			op := Write
			if ph.Kind == mpiio.OpRead {
				op = Read
			}
			a := accs[op]
			a.bytes += ph.Bytes
			a.ops += ph.Ops
			a.perRank[rank] += ph.Duration()
			if ph.Ops > 0 {
				a.sizes[ph.Bytes/ph.Ops] += ph.Ops
			}
			a.modes[ph.Mode] += ph.Ops
		}
	}

	var out []Measurement
	for _, op := range []OpType{Write, Read} {
		a := accs[op]
		if a.ops == 0 {
			continue
		}
		var worst sim.Duration
		for _, d := range a.perRank {
			if d > worst {
				worst = d
			}
		}
		m := Measurement{
			Op:        op,
			Access:    access,
			BlockSize: dominantKey(a.sizes),
			Mode:      dominantMode(a.modes),
			Ops:       a.ops,
			Bytes:     a.bytes,
		}
		if s := worst.Seconds(); s > 0 {
			m.Rate = float64(a.bytes) / s
		}
		out = append(out, m)
	}
	return out
}

func dominantKey(m map[int64]int64) int64 {
	var best int64
	var bestN int64 = -1
	for k, n := range m {
		if n > bestN || (n == bestN && k > best) {
			best, bestN = k, n
		}
	}
	return best
}

func dominantMode(m map[trace.AccessMode]int64) trace.AccessMode {
	best := trace.Sequential
	var bestN int64 = -1
	for k, n := range m {
		if n > bestN {
			best, bestN = k, n
		}
	}
	return best
}

// UsedRow is one row of the used-percentage table (Tables III, IV,
// VI, VII, IX, X, XI): how much of a level's characterized capacity
// the application obtained.
type UsedRow struct {
	Level         Level
	Op            OpType
	BlockSize     int64
	Mode          trace.AccessMode
	MeasuredRate  float64
	CharRate      float64
	LookupMode    trace.AccessMode // mode actually found in the table
	UsedPct       float64
	CharAvailable bool
}

// UsedTable implements the generation algorithm of Fig. 10: for every
// application measurement and every characterized I/O-path level,
// search the level's performance table (Fig. 11) and compute the used
// percentage. Values above 100% mean the application was not limited
// by that level (characterization stresses a single path; the
// application may exploit caches or parallelism) — then the next
// level in the path explains the behaviour.
func UsedTable(ms []Measurement, ch *Characterization) []UsedRow {
	var out []UsedRow
	for _, m := range ms {
		for _, level := range Levels() {
			t := ch.Tables[level]
			if t == nil {
				continue
			}
			row := UsedRow{
				Level:        level,
				Op:           m.Op,
				BlockSize:    m.BlockSize,
				Mode:         m.Mode,
				MeasuredRate: m.Rate,
			}
			// Levels characterized for global access only (library,
			// NFS) are searched with Global regardless of where the
			// application ran; the local-FS level with Local.
			access := Global
			if level == LevelLocalFS {
				access = Local
			}
			if rate, usedMode, ok := t.Lookup(m.Op, m.BlockSize, access, m.Mode); ok && rate > 0 {
				row.CharRate = rate
				row.LookupMode = usedMode
				row.UsedPct = m.Rate / rate * 100
				row.CharAvailable = true
			}
			out = append(out, row)
		}
	}
	return out
}

// Evaluation is the output of the methodology's third phase for one
// application on one configuration. It is a read-only report surface:
// every field is reached through an accessor, and an Evaluation never
// changes once produced — reports built from it cannot drift.
type Evaluation struct {
	appName  string
	config   string
	scenario string // fault scenario the run was taken under ("" = healthy)
	result   workload.Result
	profile  trace.Profile
	meas     []Measurement
	used     []UsedRow
	trace    *trace.Tracer // the captured trace (timelines, phases)

	// Telemetry plane: final per-component snapshots and per-phase
	// interval deltas, from the cluster's registry.
	components []telemetry.Snapshot
	phases     []telemetry.PhaseInterval

	// Span plane: the per-request path profile aggregated over the run
	// by the cluster's span collector.
	path telemetry.PathProfile
}

// AppName returns the evaluated application's name.
func (e *Evaluation) AppName() string { return e.appName }

// Config returns the characterized configuration's name.
func (e *Evaluation) Config() string { return e.config }

// Scenario returns the fault scenario the run was taken under, or ""
// for a healthy run.
func (e *Evaluation) Scenario() string { return e.scenario }

// Result returns the workload outcome (times, bytes, phase rates).
func (e *Evaluation) Result() workload.Result { return e.result }

// Profile returns the application characterization (Tables II/V/VIII).
func (e *Evaluation) Profile() trace.Profile { return e.profile }

// Measurements returns the application-side rate observations.
func (e *Evaluation) Measurements() []Measurement { return e.meas }

// Used returns the used-percentage rows (measured vs. characterized
// per I/O-path level).
func (e *Evaluation) Used() []UsedRow { return e.used }

// Trace returns the captured trace.
func (e *Evaluation) Trace() *trace.Tracer { return e.trace }

// Components returns the final per-component telemetry snapshots.
func (e *Evaluation) Components() []telemetry.Snapshot { return e.components }

// Phases returns the per-phase telemetry interval deltas.
func (e *Evaluation) Phases() []telemetry.PhaseInterval { return e.phases }

// PathProfile returns the run's span aggregation (per-request
// time-in-level attribution).
func (e *Evaluation) PathProfile() telemetry.PathProfile { return e.path }

// evaluate runs the application on the cluster under a tracer and
// produces the evaluation against the configuration's
// characterization. The cluster must be fresh (unused engine).
// Reached through Session.Evaluate (the exported surface).
func evaluate(c *cluster.Cluster, app workload.App, ch *Characterization) (*Evaluation, error) {
	return evaluateScenario(c, app, ch, "")
}

// evaluateScenario is evaluate for a run taken under a named fault
// scenario: the caller has already armed a fault plan on the cluster
// (fault.Apply), and the evaluation is labeled with the scenario so
// degraded-mode rows are distinguishable from healthy ones in every
// report. Reached through Session.EvaluateScenario.
func evaluateScenario(c *cluster.Cluster, app workload.App, ch *Characterization, scenario string) (*Evaluation, error) {
	tr := trace.New()
	// Rank 0's phase boundaries drive the per-phase snapshots — BT-IO
	// and MadBench phases are globally synchronized, so one observer
	// rank suffices.
	ps := trace.NewPhaseSnapshotter(c.Eng, c.Telemetry, tr, 0)
	// The span collector may hold characterization-phase spans; the
	// evaluation profile covers exactly this run.
	c.Path.Reset()
	res, err := app.Run(c, ps)
	if err != nil {
		return nil, fmt.Errorf("evaluate %s: %w", app.Name(), err)
	}
	ms := MeasurementsFromTrace(tr, Global)
	return &Evaluation{
		appName:  app.Name(),
		config:   ch.Config,
		scenario: scenario,
		result:   res,
		profile:  tr.Profile(),
		meas:     ms,
		used:     UsedTable(ms, ch),
		trace:    tr,

		phases:     ps.Finish(),
		components: c.Telemetry.Snapshots(),
		path:       c.Path.Profile(),
	}, nil
}

// TelemetryReport packages the evaluation as a structured, exportable
// report: the final per-component counters, one LevelRate row per
// used-table entry (MeasuredRate/CharRate/UsedPct copied verbatim, so
// the JSON export and the used-percentage analysis cannot diverge),
// and the per-phase interval snapshots.
func (e *Evaluation) TelemetryReport() *telemetry.Report {
	r := &telemetry.Report{
		App:        e.appName,
		Config:     e.config,
		At:         sim.Time(e.result.ExecTime),
		Components: e.components,
		Phases:     e.phases,
	}
	for _, u := range e.used {
		r.Levels = append(r.Levels, telemetry.LevelRate{
			Level:         u.Level.TelemetryLevel(),
			Op:            u.Op.String(),
			BlockSize:     u.BlockSize,
			Mode:          u.Mode.String(),
			MeasuredRate:  u.MeasuredRate,
			CharRate:      u.CharRate,
			UsedPct:       u.UsedPct,
			CharAvailable: u.CharAvailable,
		})
	}
	return r
}

// IOPS returns the application-level I/O operations per second of
// I/O time (one of the paper's five evaluation metrics).
func (e *Evaluation) IOPS() float64 {
	d := e.result.IOTime.Seconds()
	if d <= 0 {
		return 0
	}
	return float64(e.profile.NumReads+e.profile.NumWrites) / d
}

// MeanLatency returns the mean per-operation latency over the run's
// I/O time.
func (e *Evaluation) MeanLatency() sim.Duration {
	ops := e.profile.NumReads + e.profile.NumWrites
	if ops == 0 {
		return 0
	}
	return e.result.IOTime / sim.Duration(ops)
}

// UsedFor returns the used percentage for (level, op), or -1 when the
// evaluation has no such row.
func (e *Evaluation) UsedFor(level Level, op OpType) float64 {
	for _, u := range e.used {
		if u.Level == level && u.Op == op && u.CharAvailable {
			return u.UsedPct
		}
	}
	return -1
}
