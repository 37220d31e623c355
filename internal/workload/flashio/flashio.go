// Package flashio implements the FLASH I/O benchmark — the checkpoint
// and plotfile writer of the FLASH astrophysics code, one of the
// standard parallel I/O benchmarks the paper's related work evaluates
// (Blue Gene studies; "Flash3 I/O"). Each process owns a fixed number
// of AMR blocks; a checkpoint writes every solution variable as one
// collectively-written dataset (double precision), and two plotfiles
// write a subset of variables in single precision — many medium-sized
// collective writes, a pattern distinct from both BT-IO subtypes and
// MADbench2.
//
// The package is a spec generator: New expresses the dumps as a synth
// phase graph and runs it through the synth engine.
package flashio

import (
	"errors"
	"fmt"

	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/workload"
	"ioeval/internal/workload/synth"
)

// Config parameterizes a FLASH I/O run. Defaults mirror the standard
// benchmark setup: 80 blocks of 8×8×8 cells per process, 24
// checkpoint variables, 4 plotfile variables, two plotfiles.
type Config struct {
	Procs         int
	BlocksPerProc int
	CellsPerBlock int
	Vars          int
	PlotVars      int
	PathPrefix    string
	// Compute models the solver time preceding each dump.
	Compute sim.Duration
}

// App is a configured FLASH I/O instance. Name, Procs, Run and Spec
// come from the compiled spec.
type App struct {
	*synth.App
	cfg Config
}

var _ workload.App = (*App)(nil)

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
// without processes.
func Build(cfg Config) (*App, error) {
	if cfg.Procs <= 0 {
		return nil, errors.New("flashio: need at least one process")
	}
	if cfg.BlocksPerProc == 0 {
		cfg.BlocksPerProc = 80
	}
	if cfg.CellsPerBlock == 0 {
		cfg.CellsPerBlock = 8 * 8 * 8
	}
	if cfg.Vars == 0 {
		cfg.Vars = 24
	}
	if cfg.PlotVars == 0 {
		cfg.PlotVars = 4
	}
	if cfg.PathPrefix == "" {
		cfg.PathPrefix = "/flash"
	}
	a := &App{cfg: cfg}
	a.App = synth.MustCompile(a.spec())
	return a, nil
}

// VarBytesPerProc returns a rank's contribution to one checkpoint
// variable dataset (double precision).
func (a *App) VarBytesPerProc() int64 {
	return int64(a.cfg.BlocksPerProc) * int64(a.cfg.CellsPerBlock) * 8
}

// PlotVarBytesPerProc is the single-precision plotfile counterpart.
func (a *App) PlotVarBytesPerProc() int64 { return a.VarBytesPerProc() / 2 }

// CheckpointBytes returns the total checkpoint size.
func (a *App) CheckpointBytes() int64 {
	return a.VarBytesPerProc() * int64(a.cfg.Vars) * int64(a.cfg.Procs)
}

// spec expresses the run as a phase graph: the optional solver time,
// the checkpoint (one collectively written dataset per variable), a
// barrier, then the two plotfiles (PlotVars single-precision datasets
// each). Every dataset is variable-major with rank blocks contiguous.
// The files take MPI-IO's default hints.
func (a *App) spec() *synth.Spec {
	c := a.cfg
	np := int64(c.Procs)
	h := mpiio.DefaultHints()
	file := func(name, suffix string) synth.FileSpec {
		return synth.FileSpec{Name: name, Path: c.PathPrefix + suffix,
			CollectiveBuffering: h.CollectiveBuffering, CBNodes: h.CBNodes, CBBufferBytes: h.CBBufferSize}
	}
	dataset := func(name, fileName string, vars int, varBytes int64, next string) synth.PhaseSpec {
		return synth.PhaseSpec{Name: name, Loop: vars, Next: next, Steps: []synth.StepSpec{{
			Op: synth.OpWrite, File: fileName, Collective: true,
			Access:          []synth.AccessSpec{{BlockBytes: varBytes}},
			LoopStrideBytes: varBytes * np, RankStrideBytes: varBytes,
		}}}
	}

	var phases []synth.PhaseSpec
	if c.Compute > 0 {
		phases = append(phases, synth.PhaseSpec{Name: "compute", Next: "checkpoint",
			Steps: []synth.StepSpec{{Op: synth.OpCompute, ComputeNS: int64(c.Compute)}}})
	}
	phases = append(phases,
		dataset("checkpoint", "chk", c.Vars, a.VarBytesPerProc(), "barrier"),
		synth.PhaseSpec{Name: "barrier", Steps: []synth.StepSpec{{Op: synth.OpBarrier}}, Next: "crn"},
		dataset("crn", "plt_crn", c.PlotVars, a.PlotVarBytesPerProc(), "cnt"),
		dataset("cnt", "plt_cnt", c.PlotVars, a.PlotVarBytesPerProc(), ""),
	)
	return &synth.Spec{
		Name:  fmt.Sprintf("FLASH I/O (%d procs, %d blocks/proc, %d vars)", c.Procs, c.BlocksPerProc, c.Vars),
		Procs: c.Procs,
		Files: []synth.FileSpec{
			file("chk", "_hdf5_chk_0001"),
			file("plt_crn", "_hdf5_plt_crn_0001"),
			file("plt_cnt", "_hdf5_plt_cnt_0001"),
		},
		Phases: phases,
	}
}
