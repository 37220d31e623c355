// Package madbench implements the MADbench2 benchmark on the
// simulated cluster: the out-of-core CMB power-spectrum workload whose
// three functions move whole component matrices between memory and
// disk. In IO mode (the paper's setup: IOMETHOD=MPI, IOMODE=SYNC)
// calculations are replaced with busy-work and the D function is
// skipped, leaving the paper's three I/O phases per process:
//
//	S: 8 writes            (S_w)
//	W: 8 reads + 8 writes  (W_r, W_w)
//	C: 8 reads             (C_r)
//
// With 18 KPIX and 16 processes each operation moves a 162 MB slice
// (Table VIII); with 64 processes, 40.5 MB. FileType selects one
// shared file or one file per process (SHARED/UNIQUE).
//
// The package is a spec generator: New expresses the three phases as
// a synth phase graph and runs it through the synth engine.
package madbench

import (
	"fmt"

	"ioeval/internal/sim"
	"ioeval/internal/workload"
	"ioeval/internal/workload/synth"
)

// FileType selects the file layout, per MADbench2's FILETYPE option.
type FileType int

// The two layouts the paper evaluates.
const (
	Unique FileType = iota // one file per process
	Shared                 // one shared file
)

func (ft FileType) String() string {
	if ft == Unique {
		return "UNIQUE"
	}
	return "SHARED"
}

// Config parameterizes a MADbench2 run.
type Config struct {
	Procs    int // must be a perfect square (MADbench requirement)
	KPix     int // pixels = KPix × 1024 (paper: 18)
	Bins     int // component matrices (paper: 8)
	FileType FileType
	// PathPrefix for the benchmark files on shared storage.
	PathPrefix string
	// BusyWork is the per-bin busy-work time replacing calculations
	// in IO mode (0 = pure I/O).
	BusyWork sim.Duration
	// AsyncWrites disables the paper's IOMODE=SYNC behaviour (a sync
	// after every write). Default false: writes are synced, so
	// write-behind caches cannot defer the cost out of the
	// measurement window.
	AsyncWrites bool
}

// App is a configured MADbench2 instance. Name, Procs, Run and Spec
// come from the compiled spec.
type App struct {
	*synth.App
	cfg Config
}

var _ workload.App = (*App)(nil)

// The paper's problem size (Table VIII), New's defaults.
const (
	DefaultKPix = 18
	DefaultBins = 8
)

// New is Build for a configuration known to be valid; it panics on
// Build's error.
func New(cfg Config) *App {
	a, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Build returns the workload, or an error for a configuration
// MADbench2 cannot run: it needs a square number of processes.
func Build(cfg Config) (*App, error) {
	q := 1
	for q*q < cfg.Procs {
		q++
	}
	if q*q != cfg.Procs {
		return nil, fmt.Errorf("madbench: %d processes is not a square", cfg.Procs)
	}
	if cfg.KPix == 0 {
		cfg.KPix = DefaultKPix
	}
	if cfg.Bins == 0 {
		cfg.Bins = DefaultBins
	}
	if cfg.PathPrefix == "" {
		cfg.PathPrefix = "/madbench"
	}
	a := &App{cfg: cfg}
	a.App = synth.MustCompile(a.spec())
	return a, nil
}

// SliceBytes returns the per-process matrix slice (162 MB for 18 KPIX
// on 16 processes — Table VIII).
func (a *App) SliceBytes() int64 {
	npix := int64(a.cfg.KPix) * 1024
	return npix * npix * 8 / int64(a.cfg.Procs)
}

// spec expresses the run as three looped phases (S, W, C) of
// whole-slice independent operations. MADbench uses independent large
// operations: collective buffering brings nothing for disjoint
// whole-slice accesses. Each read and write is timed under its
// function's rate key — MADbench2 itself reports exactly these (S_w,
// W_r, W_w, C_r).
func (a *App) spec() *synth.Spec {
	c := a.cfg
	np := c.Procs
	slice := a.SliceBytes()
	shared := c.FileType == Shared

	// UNIQUE files are per-rank files named PathPrefix.%04d, on NFS
	// until synth.Remount moves them.
	file := synth.FileSpec{Name: "matrices", Path: c.PathPrefix, Mount: "nfs", PerRank: !shared}

	// Bin b of a rank's slice lives at b*slice in a UNIQUE file and at
	// (b*np+rank)*slice in the shared bin-major layout (slices of a bin
	// contiguous by rank).
	acc := []synth.AccessSpec{{OffsetBytes: 0, BlockBytes: slice}}
	loopStride, rankStride := slice, int64(0)
	if shared {
		loopStride, rankStride = int64(np)*slice, slice
	}
	io := func(op, key string) synth.StepSpec {
		return synth.StepSpec{Op: op, File: "matrices", RateKey: key, Access: acc,
			LoopStrideBytes: loopStride, RankStrideBytes: rankStride}
	}
	// In SYNC I/O mode (IOMODE=SYNC, the paper's setting) each write is
	// followed by a sync so the cost cannot hide in a write-behind cache.
	write := func(key string) synth.StepSpec {
		st := io(synth.OpWrite, key)
		st.SyncAfter = !c.AsyncWrites
		return st
	}
	busy := synth.StepSpec{Op: synth.OpCompute, ComputeNS: int64(c.BusyWork)}

	// S builds and writes each bin matrix; W reads each bin, busy-works
	// and writes it back; C reads each bin.
	var sSteps, wSteps []synth.StepSpec
	if c.BusyWork > 0 {
		sSteps = append(sSteps, busy)
	}
	sSteps = append(sSteps, write("S_w"))
	wSteps = append(wSteps, io(synth.OpRead, "W_r"))
	if c.BusyWork > 0 {
		wSteps = append(wSteps, busy)
	}
	wSteps = append(wSteps, write("W_w"))

	return &synth.Spec{
		Name:  fmt.Sprintf("MADbench2 %s (%d procs, %d KPIX, %d bins)", c.FileType, np, c.KPix, c.Bins),
		Procs: np,
		Files: []synth.FileSpec{file},
		Start: "S",
		Phases: []synth.PhaseSpec{
			{Name: "S", Loop: c.Bins, Steps: sSteps, Next: "W"},
			{Name: "W", Loop: c.Bins, Steps: wSteps, Next: "C"},
			{Name: "C", Loop: c.Bins, Steps: []synth.StepSpec{io(synth.OpRead, "C_r")}},
		},
	}
}
