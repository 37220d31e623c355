// Package btio implements the NAS BT-IO benchmark (NPB 2.4 I/O
// version) on the simulated cluster: the Block-Tridiagonal solver's
// diagonal multi-partitioning decomposition, a solution-field dump
// every WriteInterval time steps, and the two I/O subtypes the paper
// contrasts:
//
//   - full:   MPI-IO with collective buffering — data is rearranged
//     across processes and written as few large contiguous chunks.
//   - simple: MPI-IO without collective buffering — every process
//     writes each of its cell lines with an individual seek+write,
//     producing millions of ~1.6 KB strided operations.
//
// The decomposition reproduces the paper's characterization tables
// exactly in structure: class C on 16 processes yields 6561 records
// per process per dump of 1600 and 1640 bytes (Table II); on 64
// processes, 800- and 840-byte records (Table V).
//
// The package is a spec generator: New derives the run's phase graph
// from the decomposition and runs it through the synth engine, so the
// spec (App.Spec) is the single description of what BT-IO does.
package btio

import (
	"fmt"
	"math"

	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/workload"
	"ioeval/internal/workload/synth"
)

// Subtype selects the BT-IO I/O implementation.
type Subtype int

// The paper's two evaluated subtypes.
const (
	Full Subtype = iota
	Simple
)

func (s Subtype) String() string {
	if s == Full {
		return "full"
	}
	return "simple"
}

// Class is an NPB problem class.
type Class struct {
	Name          string
	N             int // grid points per dimension
	Steps         int // time steps
	WriteInterval int // dump the solution every this many steps
	// ComputeTotal approximates the aggregate computation time of the
	// whole run on the reference hardware; it is divided over ranks
	// and steps.
	ComputeTotal sim.Duration
}

// NPB classes with I/O (per the NPB 2.4 specification).
var (
	ClassA = Class{Name: "A", N: 64, Steps: 200, WriteInterval: 5, ComputeTotal: 120 * sim.Second}
	ClassB = Class{Name: "B", N: 102, Steps: 200, WriteInterval: 5, ComputeTotal: 500 * sim.Second}
	ClassC = Class{Name: "C", N: 162, Steps: 200, WriteInterval: 5, ComputeTotal: 2000 * sim.Second}
)

const bytesPerPoint = 5 * 8 // five double-precision words per mesh point

// Config parameterizes a BT-IO run.
type Config struct {
	Class   Class
	Procs   int // must be a perfect square (BT requirement)
	Subtype Subtype
	// Path of the shared solution file on the cluster's NFS storage
	// (synth.Remount moves it to another mount).
	Path string
	// ComputeScale scales the modeled computation time (1.0 = class
	// default; 0 = I/O only). Tests use small values.
	ComputeScale float64
	// Hints overrides the MPI-IO hints; zero value uses subtype
	// defaults (full: collective buffering on; simple: off).
	Hints *mpiio.Hints
}

// App is a configured BT-IO instance. Name, Procs, Run and Spec come
// from the compiled spec.
type App struct {
	*synth.App
	cfg Config
	q   int   // process grid side (procs = q²)
	xs  []int // split of N into q chunks (larger chunks first)
	pfx []int // prefix sums of xs
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

// Build returns the workload, or an error for a configuration BT
// cannot run: it needs a square number of processes.
func Build(cfg Config) (*App, error) {
	q := int(math.Sqrt(float64(cfg.Procs)))
	if q*q != cfg.Procs || cfg.Procs <= 0 {
		return nil, fmt.Errorf("btio: %d processes is not a square", cfg.Procs)
	}
	if cfg.Path == "" {
		cfg.Path = "/btio.out"
	}
	a := &App{cfg: cfg, q: q}
	a.xs = split(cfg.Class.N, q)
	a.pfx = make([]int, q+1)
	for i, s := range a.xs {
		a.pfx[i+1] = a.pfx[i] + s
	}
	a.App = synth.MustCompile(a.spec())
	return a, nil
}

// split divides n into q near-equal parts, larger parts first
// (162 into 4 → 41,41,40,40 — exactly NPB's cell sizing).
func split(n, q int) []int {
	out := make([]int, q)
	base, rem := n/q, n%q
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// Dumps returns the number of solution dumps in the run.
func (a *App) Dumps() int { return a.cfg.Class.Steps / a.cfg.Class.WriteInterval }

// DumpBytes returns the size of one solution dump.
func (a *App) DumpBytes() int64 {
	n := int64(a.cfg.Class.N)
	return n * n * n * bytesPerPoint
}

// cell is one Cartesian sub-block.
type cell struct{ cx, cy, cz int }

// cells returns the q cells of a rank under diagonal
// multi-partitioning: rank (r,c) owns, on each z-layer d, the cell
// shifted diagonally so every layer is fully covered and each rank's
// cells sit on a space diagonal.
func (a *App) cells(rank int) []cell {
	r, c := rank/a.q, rank%a.q
	out := make([]cell, a.q)
	for d := 0; d < a.q; d++ {
		out[d] = cell{cx: (c + d) % a.q, cy: (r + d) % a.q, cz: d}
	}
	return out
}

// GridRange is one Cartesian sub-block of the solution grid owned by
// a rank: [X0,X0+NX) × [Y0,Y0+NY) × [Z0,Z0+NZ) in grid points.
type GridRange struct {
	X0, NX int
	Y0, NY int
	Z0, NZ int
}

// BytesPerPoint is the record unit of the solution file: five
// double-precision words per mesh point.
const BytesPerPoint = bytesPerPoint

// Decomposition returns the rank's owned sub-blocks under diagonal
// multi-partitioning, in dump emission order. Together with
// BytesPerPoint and the class N this fully determines the rank's file
// accesses.
func (a *App) Decomposition(rank int) []GridRange {
	out := make([]GridRange, 0, a.q)
	for _, cl := range a.cells(rank) {
		out = append(out, GridRange{
			X0: a.pfx[cl.cx], NX: a.xs[cl.cx],
			Y0: a.pfx[cl.cy], NY: a.xs[cl.cy],
			Z0: a.pfx[cl.cz], NZ: a.xs[cl.cz],
		})
	}
	return out
}

// FaceBytes returns the size of one boundary-exchange message (a cell
// face of the largest cell).
func (a *App) FaceBytes() int64 {
	return int64(a.xs[0]) * int64(a.xs[0]) * bytesPerPoint
}

// MessagesPerDump returns the boundary-exchange messages each rank
// sends between dumps: 24 per time step (the paper observes ~120 per
// write phase at WriteInterval 5).
func (a *App) MessagesPerDump() int { return 24 * a.cfg.Class.WriteInterval }

// ComputePerDump returns the modeled per-rank computation time between
// dumps (0 when ComputeScale is 0).
func (a *App) ComputePerDump() sim.Duration {
	if a.cfg.ComputeScale <= 0 {
		return 0
	}
	perRank := float64(a.cfg.Class.ComputeTotal) / float64(a.cfg.Procs) / float64(a.Dumps())
	return sim.Duration(perRank * a.cfg.ComputeScale)
}

// spec expresses the run as a phase graph: Dumps iterations of
// compute, boundary exchange and one dump write; a barrier; then the
// verification read-back of the whole solution history.
func (a *App) spec() *synth.Spec {
	c := a.cfg
	n := int64(c.Class.N)

	file := synth.FileSpec{Name: "solution", Path: c.Path, Mount: "nfs", CollectiveBuffering: c.Subtype == Full}
	if h := c.Hints; h != nil {
		file.CollectiveBuffering, file.CBNodes, file.CBBufferBytes = h.CollectiveBuffering, h.CBNodes, h.CBBufferSize
	}

	// One access per owned cell: a record per x-line, strided over the
	// cell's z (outer) and y (inner) extents.
	perRank := make([][]synth.AccessSpec, c.Procs)
	for rank := range perRank {
		for _, g := range a.Decomposition(rank) {
			perRank[rank] = append(perRank[rank], synth.AccessSpec{
				OffsetBytes: ((int64(g.Z0)*n+int64(g.Y0))*n + int64(g.X0)) * bytesPerPoint,
				BlockBytes:  int64(g.NX) * bytesPerPoint,
				Dims: []synth.DimSpec{
					{Count: g.NZ, StrideBytes: n * n * bytesPerPoint},
					{Count: g.NY, StrideBytes: n * bytesPerPoint},
				},
			})
		}
	}

	// The full subtype issues collective operations even under hints
	// that disable collective buffering (the library then degrades them
	// to independent I/O itself).
	collective := c.Subtype == Full
	io := func(op string) synth.StepSpec {
		return synth.StepSpec{Op: op, File: "solution", Collective: collective,
			PerRankAccess: perRank, LoopStrideBytes: a.DumpBytes()}
	}
	var dump []synth.StepSpec
	if d := a.ComputePerDump(); d > 0 {
		dump = append(dump, synth.StepSpec{Op: synth.OpCompute, ComputeNS: int64(d)})
	}
	dump = append(dump,
		synth.StepSpec{Op: synth.OpSend, ToRankOffset: 1, Messages: a.MessagesPerDump(), MessageBytes: a.FaceBytes()},
		io(synth.OpWrite))

	return &synth.Spec{
		Name:  fmt.Sprintf("NAS BT-IO class %s %s (%d procs)", c.Class.Name, c.Subtype, c.Procs),
		Procs: c.Procs,
		Files: []synth.FileSpec{file},
		Start: "dump",
		Phases: []synth.PhaseSpec{
			{Name: "dump", Loop: a.Dumps(), Steps: dump, Next: "sync-point"},
			{Name: "sync-point", Steps: []synth.StepSpec{{Op: synth.OpBarrier}}, Next: "readback"},
			{Name: "readback", Loop: a.Dumps(), Steps: []synth.StepSpec{io(synth.OpRead)}},
		},
	}
}
