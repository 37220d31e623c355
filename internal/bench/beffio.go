package bench

import (
	"fmt"

	"ioeval/internal/cluster"
	"ioeval/internal/workload/synth"
)

// b_eff_io (Rabenseifner & Koniges), the paper's second option for
// library-level characterization: measure the effective parallel I/O
// bandwidth across several access patterns and transfer sizes, and
// reduce them to one number.

// BeffPattern is one of the benchmark's access patterns.
type BeffPattern int

// The three patterns implemented (b_eff_io's main families).
const (
	// BeffScatter: one shared file, ranks write interleaved chunks
	// (strided pattern, pattern type 0).
	BeffScatter BeffPattern = iota
	// BeffSegmented: one shared file, each rank owns one contiguous
	// segment (pattern type 2).
	BeffSegmented
	// BeffSeparate: one file per process (pattern type 4).
	BeffSeparate
)

func (p BeffPattern) String() string {
	switch p {
	case BeffScatter:
		return "scatter"
	case BeffSegmented:
		return "segmented"
	case BeffSeparate:
		return "separate"
	}
	return fmt.Sprintf("BeffPattern(%d)", int(p))
}

// BeffIOConfig parameterizes the run.
type BeffIOConfig struct {
	Procs         int
	TransferSizes []int64 // per-op sizes (default 32 KiB and 1 MiB)
	// BytesPerRank per (pattern, size) measurement, rounded down to
	// whole transfers; it must hold at least one.
	BytesPerRank int64
	Patterns     []BeffPattern
}

// BeffIOResult is one measurement.
type BeffIOResult struct {
	Pattern      BeffPattern
	TransferSize int64
	WriteRate    float64 // aggregate bytes/second
	ReadRate     float64
}

// BeffIOSummary is the benchmark's output: the individual pattern
// results and the summary bandwidth b_eff_io (the average over
// patterns and sizes, as the original reduces its measurements).
type BeffIOSummary struct {
	Results []BeffIOResult
	BeffIO  float64 // bytes/second
}

// RunBeffIO measures effective parallel I/O bandwidth on the
// cluster's shared storage through the MPI-IO layer. Measurements run
// back to back on one engine; each write window opens when its run
// starts, each read window at the first rank's read, and both close at
// the last rank's end.
func RunBeffIO(c *cluster.Cluster, cfg BeffIOConfig) (BeffIOSummary, error) {
	if len(cfg.TransferSizes) == 0 {
		cfg.TransferSizes = []int64{32 << 10, 1 << 20}
	}
	if cfg.BytesPerRank == 0 {
		cfg.BytesPerRank = 64 << 20
	}
	if len(cfg.Patterns) == 0 {
		cfg.Patterns = []BeffPattern{BeffScatter, BeffSegmented, BeffSeparate}
	}

	var sum BeffIOSummary
	for _, pattern := range cfg.Patterns {
		for _, ts := range cfg.TransferSizes {
			spec, err := beffSpec(cfg, pattern, ts)
			if err != nil {
				return BeffIOSummary{}, err
			}
			win, err := runSpec(c, spec, nil)
			if err != nil {
				return BeffIOSummary{}, err
			}
			sum.Results = append(sum.Results, BeffIOResult{
				Pattern:      pattern,
				TransferSize: ts,
				WriteRate:    rate(win.wrote, win.firstOpen, win.writeEnd),
				ReadRate:     rate(win.read, win.firstRead, win.readEnd),
			})
		}
	}
	// Reduce: arithmetic mean of the per-measurement mean of write
	// and read rates.
	var acc float64
	for _, r := range sum.Results {
		acc += (r.WriteRate + r.ReadRate) / 2
	}
	if len(sum.Results) > 0 {
		sum.BeffIO = acc / float64(len(sum.Results))
	}
	return sum, nil
}

// beffSpec is one (pattern, transfer size) measurement as a synth
// spec: every rank writes BytesPerRank in whole transfers, meets the
// others at a barrier, and reads the same transfers back. Separate
// files are PerRank (one-rank worlds, like MADbench2 UNIQUE), so their
// paths gain the rank suffix.
func beffSpec(cfg BeffIOConfig, pattern BeffPattern, ts int64) (*synth.Spec, error) {
	if ts <= 0 {
		return nil, fmt.Errorf("bench: b_eff_io transfer size %d is not positive", ts)
	}
	n := cfg.BytesPerRank / ts
	acc := synth.AccessSpec{BlockBytes: ts, Dims: []synth.DimSpec{{Count: int(n), StrideBytes: ts}}}
	file := synth.FileSpec{Name: "beff", Path: fmt.Sprintf("/beff-%v-%d", pattern, ts)}
	var rankStride int64
	switch pattern {
	case BeffScatter:
		acc.Dims[0].StrideBytes = int64(cfg.Procs) * ts
		rankStride = ts
	case BeffSegmented:
		rankStride = n * ts
	case BeffSeparate:
		file.PerRank = true
	default:
		return nil, fmt.Errorf("bench: unknown b_eff_io pattern %v", pattern)
	}
	io := func(op string) synth.StepSpec {
		return synth.StepSpec{Op: op, File: "beff", Access: []synth.AccessSpec{acc}, RankStrideBytes: rankStride}
	}
	return &synth.Spec{
		Name:  fmt.Sprintf("b_eff_io %v/%d", pattern, ts),
		Procs: cfg.Procs,
		Files: []synth.FileSpec{file},
		Phases: []synth.PhaseSpec{{Name: "beff", Steps: []synth.StepSpec{
			io(synth.OpWrite), {Op: synth.OpBarrier}, io(synth.OpRead),
		}}},
	}, nil
}
