// Package workload defines the application-side contract the
// methodology evaluates: an App runs on a simulated cluster under a
// tracer, and reports its execution metrics (the paper's "execution
// time, I/O time, transfer rate" measurements). Subpackages generate
// the paper's two applications, NAS BT-IO and MadBench2, and FLASH I/O
// as synth specs; synth runs them.
package workload

import (
	"ioeval/internal/cluster"
	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
)

// Result is what a run reports (Figs. 12, 15, 17, 18).
type Result struct {
	ExecTime sim.Duration // wall time of the whole run
	IOTime   sim.Duration // max per-rank time spent inside I/O calls

	BytesRead    int64
	BytesWritten int64

	// ReadTime and WriteTime are the max per-rank cumulative times in
	// read and write calls respectively.
	ReadTime, WriteTime sim.Duration

	// PhaseRates holds named per-phase aggregate transfer rates in
	// bytes/second (MadBench2's S_w, W_w, W_r, C_r).
	PhaseRates map[string]float64
}

// Throughput returns the overall I/O rate (bytes moved per second of
// I/O time).
func (r Result) Throughput() float64 {
	d := r.IOTime.Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.BytesRead+r.BytesWritten) / d
}

// App is a runnable parallel application.
type App interface {
	Name() string
	Procs() int
	// Run executes the application to completion on the cluster,
	// reporting events to tr (which may be nil).
	Run(c *cluster.Cluster, tr mpiio.Tracer) (Result, error)
}

// RateAggregator accumulates the named per-phase measurements behind
// Result.PhaseRates: cumulative per-rank time and total bytes per key.
// Ranks run in parallel, so a key's aggregate rate is its total bytes
// over the slowest rank's cumulative time in it — MADbench2's S_w,
// W_r, W_w, C_r convention, which the synth engine applies to every
// step with a rate key.
type RateAggregator struct {
	np    int
	keys  []string // declaration order, for deterministic iteration
	durs  map[string][]sim.Duration
	bytes map[string]int64
}

// NewRateAggregator returns an empty aggregator for np ranks.
func NewRateAggregator(np int) *RateAggregator {
	return &RateAggregator{np: np, durs: map[string][]sim.Duration{}, bytes: map[string]int64{}}
}

// Declare registers keys up front so they participate in Rates even
// when no rank ever spends time in them (they are then omitted from
// the map, but the aggregator counts as non-empty).
func (ra *RateAggregator) Declare(keys ...string) {
	for _, k := range keys {
		ra.ensure(k)
	}
}

func (ra *RateAggregator) ensure(key string) []sim.Duration {
	if d, ok := ra.durs[key]; ok {
		return d
	}
	d := make([]sim.Duration, ra.np)
	ra.durs[key] = d
	ra.keys = append(ra.keys, key)
	return d
}

// Add accumulates d of rank's time and n bytes moved under key.
func (ra *RateAggregator) Add(key string, rank int, d sim.Duration, n int64) {
	ra.ensure(key)[rank] += d
	ra.bytes[key] += n
}

// Empty reports whether no key was ever declared or added.
func (ra *RateAggregator) Empty() bool { return len(ra.keys) == 0 }

// Rates builds the PhaseRates map: nil when the aggregator is empty
// (workloads without phase structure report no rates at all);
// otherwise one entry per key whose slowest rank spent time in it —
// a key timed only by zero-duration phases is omitted rather than
// reported as an infinite rate.
func (ra *RateAggregator) Rates() map[string]float64 {
	if ra.Empty() {
		return nil
	}
	out := map[string]float64{}
	for _, key := range ra.keys {
		var worst sim.Duration
		for _, d := range ra.durs[key] {
			if d > worst {
				worst = d
			}
		}
		if s := worst.Seconds(); s > 0 {
			out[key] = float64(ra.bytes[key]) / s
		}
	}
	return out
}
