package synth

import (
	"fmt"
	"slices"

	"ioeval/internal/cluster"
	"ioeval/internal/fs"
	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/workload"
)

// App is a compiled spec, runnable as a workload.App. Each Run builds
// fresh worlds and files on the given cluster, so one App can be
// reused across sweep cells.
type App struct {
	spec  *Spec
	chain []*PhaseSpec
}

var _ workload.App = (*App)(nil)

// Compile validates the spec and resolves its phase chain.
func Compile(s *Spec) (*App, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &App{spec: s, chain: s.Chain()}, nil
}

// MustCompile is Compile for known-good specs (generators, sweep
// grids); it panics on a validation error.
func MustCompile(s *Spec) *App {
	a, err := Compile(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Remount returns a copy of app with every NFS file (mount "" or
// "nfs") on mount instead: "pfs" runs it on the cluster's parallel FS,
// "local" on each rank's node disk. The copy compiles a copy of app's
// spec and leaves the spec itself unchanged, so both may run at once.
// An app with no Spec method is not a spec and comes back as it is.
func Remount(app workload.App, mount string) (workload.App, error) {
	sa, ok := app.(interface{ Spec() *Spec })
	if !ok {
		return app, nil
	}
	s := *sa.Spec()
	s.Files = slices.Clone(s.Files)
	for i := range s.Files {
		if f := &s.Files[i]; f.Mount == "" || f.Mount == "nfs" {
			f.Mount = mount
		}
	}
	a, err := Compile(&s)
	if err != nil {
		return nil, err
	}
	return a, nil
}

// Name implements workload.App.
func (a *App) Name() string {
	if a.spec.Name == "" {
		return "synthetic"
	}
	return a.spec.Name
}

// Procs implements workload.App.
func (a *App) Procs() int { return a.spec.Procs }

// Spec returns the compiled spec.
func (a *App) Spec() *Spec { return a.spec }

// openFile is one rank's view of a declared file.
type openFile struct {
	f     *mpiio.File
	fRank int // rank within f's world (0 for per-rank files)
}

// AppendVecs expands the step's access list for one rank and phase
// iteration into the vector the MPI-IO layer consumes, appending it to
// dst. The rank loop passes one buffer per rank, reused across steps
// and iterations: no layer keeps the vector after its call returns.
func (st *StepSpec) AppendVecs(dst []fs.IOVec, rank, iter int) []fs.IOVec {
	accs := st.Access
	if len(st.PerRankAccess) > 0 {
		accs = st.PerRankAccess[rank]
	}
	base := int64(iter)*st.LoopStrideBytes + int64(rank)*st.RankStrideBytes
	var n int64
	for _, a := range accs {
		n += a.Elements()
	}
	dst = slices.Grow(dst, int(n))
	for _, a := range accs {
		expandAccess(&dst, a, base+a.OffsetBytes, 0)
	}
	return dst
}

// expandAccess emits the access's blocks, outermost dimension first,
// inner dimensions varying fastest — the emission order the BT-IO
// decomposition produces (z outer, y inner).
func expandAccess(out *[]fs.IOVec, a AccessSpec, base int64, dim int) {
	if dim == len(a.Dims) {
		*out = append(*out, fs.IOVec{Off: base, Len: a.BlockBytes})
		return
	}
	d := a.Dims[dim]
	for i := 0; i < d.Count; i++ {
		expandAccess(out, a, base+int64(i)*d.StrideBytes, dim+1)
	}
}

// mounts resolves a file's storage selection on the cluster.
func (a *App) mounts(c *cluster.Cluster, f *FileSpec) ([]fs.Interface, error) {
	np := a.spec.Procs
	switch f.Mount {
	case "", "nfs":
		return c.NFSMounts(np), nil
	case "local":
		return c.LocalMounts(np), nil
	case "pfs":
		if c.PFS == nil {
			return nil, errf(fmt.Sprintf("file %q", f.Name),
				"mount pfs but the cluster has no parallel filesystem (build it with PFSIONodes > 0)")
		}
		return c.PFSMounts(np), nil
	}
	return nil, errf(fmt.Sprintf("file %q", f.Name), "unknown mount %q", f.Mount)
}

// Run implements workload.App: the phase chain executes on every rank
// through the standard request path, so spans, telemetry, traces, and
// fault scenarios all apply to synthetic workloads unchanged.
func (a *App) Run(c *cluster.Cluster, tr mpiio.Tracer) (workload.Result, error) {
	return a.RunWithPrologue(c, tr, nil)
}

// RunWithPrologue is Run with a hook that rank 0 calls, on its own
// proc, before it opens any file; a nil prologue is Run. IOR's
// characterization unit drops the I/O node's caches there. On a fresh
// cluster the drop has nothing to evict, but its fork yield still puts
// rank 0's open behind the other ranks' opens, and the library-level
// table depends on that order: running the drop on a proc of its own
// before the rank loop, or not at all, changes the table. The hook is
// Go-only, not a spec field, because it carries measurement-harness
// code rather than an access pattern.
func (a *App) RunWithPrologue(c *cluster.Cluster, tr mpiio.Tracer, prologue func(*sim.Proc)) (workload.Result, error) {
	s := a.spec
	np := s.Procs
	w := c.NewWorld(c.RankNodes(np))
	w.SetTracer(tr)

	// Resolve storage and pre-open shared files (one mpiio.File over
	// the full world).
	mountsByFile := make([][]fs.Interface, len(s.Files))
	shared := make([]*mpiio.File, len(s.Files))
	for i := range s.Files {
		f := &s.Files[i]
		m, err := a.mounts(c, f)
		if err != nil {
			return workload.Result{}, err
		}
		mountsByFile[i] = m
		if !f.PerRank {
			shared[i] = mpiio.OpenFile(w, f.Path, fs.ORead|fs.OWrite|fs.OCreate|fs.OTrunc,
				m, hintsFor(f))
		}
	}
	fileIdx := map[string]int{}
	for i := range s.Files {
		fileIdx[s.Files[i].Name] = i
	}

	// Phase-rate keys, declared in chain order so the aggregator is
	// deterministic and non-nil whenever the spec names any rate.
	ra := workload.NewRateAggregator(np)
	for _, ph := range a.chain {
		for i := range ph.Steps {
			if k := ph.Steps[i].RateKey; k != "" {
				ra.Declare(k)
			}
		}
	}

	var errs []error
	readTimes := make([]sim.Duration, np)
	writeTimes := make([]sim.Duration, np)
	bytesRead := make([]int64, np)
	bytesWritten := make([]int64, np)

	for rank := 0; rank < np; rank++ {
		rank := rank
		c.Eng.Spawn(fmt.Sprintf("synth-r%d", rank), func(p *sim.Proc) {
			if prologue != nil && rank == 0 {
				prologue(p)
			}
			// Per-rank files get a one-rank sub-world (no shared-file
			// locking) with events relabelled to the true rank —
			// MADbench2's UNIQUE layout.
			files := make([]openFile, len(s.Files))
			for i := range s.Files {
				f := &s.Files[i]
				if shared[i] != nil {
					files[i] = openFile{f: shared[i], fRank: rank}
					continue
				}
				sub := c.NewWorld([]string{w.Node(rank)})
				sub.SetTracer(&rankShift{tr: w.Tracer(), rank: rank})
				pf := mpiio.OpenFile(sub, fmt.Sprintf("%s.%04d", f.Path, rank),
					fs.ORead|fs.OWrite|fs.OCreate|fs.OTrunc,
					[]fs.Interface{mountsByFile[i][rank]}, hintsFor(f))
				files[i] = openFile{f: pf, fRank: 0}
			}
			for i := range files {
				if err := files[i].f.Open(p, files[i].fRank); err != nil {
					errs = append(errs, err)
					return
				}
			}

			var vecs []fs.IOVec
			for _, ph := range a.chain {
				iters := ph.iterations()
				for it := 0; it < iters; it++ {
					for si := range ph.Steps {
						st := &ph.Steps[si]
						switch st.Op {
						case OpWrite, OpRead:
							of := files[fileIdx[st.File]]
							vecs = st.AppendVecs(vecs[:0], rank, it)
							t0 := p.Now()
							got := doIO(p, of, st, vecs)
							if st.SyncAfter {
								of.f.Sync(p, of.fRank)
							}
							dt := sim.Duration(p.Now() - t0)
							if st.Op == OpWrite {
								writeTimes[rank] += dt
								bytesWritten[rank] += got
							} else {
								readTimes[rank] += dt
								bytesRead[rank] += got
							}
							if st.RateKey != "" {
								ra.Add(st.RateKey, rank, dt, got)
							}
						case OpCompute:
							w.Compute(p, rank, sim.Duration(st.ComputeNS))
						case OpSend:
							to := ((rank+st.ToRankOffset)%np + np) % np
							for m := 0; m < st.Messages; m++ {
								w.Send(p, rank, to, st.MessageBytes)
							}
						case OpBarrier:
							w.Barrier(p, rank)
						case OpSync:
							of := files[fileIdx[st.File]]
							of.f.Sync(p, of.fRank)
						}
					}
				}
			}
			for i := range files {
				files[i].f.Close(p, files[i].fRank)
			}
		})
	}
	end := c.Eng.Run()
	if len(errs) > 0 {
		return workload.Result{}, errs[0]
	}

	res := workload.Result{ExecTime: sim.Duration(end), PhaseRates: ra.Rates()}
	for r := 0; r < np; r++ {
		if readTimes[r] > res.ReadTime {
			res.ReadTime = readTimes[r]
		}
		if writeTimes[r] > res.WriteTime {
			res.WriteTime = writeTimes[r]
		}
		if tot := readTimes[r] + writeTimes[r]; tot > res.IOTime {
			res.IOTime = tot
		}
		res.BytesRead += bytesRead[r]
		res.BytesWritten += bytesWritten[r]
	}
	return res, nil
}

// doIO dispatches one access to the library call for its shape:
// collective steps always participate (the rendezvous needs every
// rank, even empty contributors); independent single-extent steps are
// plain WriteAt/ReadAt; independent multi-extent steps are vector
// operations.
func doIO(p *sim.Proc, of openFile, st *StepSpec, vecs []fs.IOVec) int64 {
	write := st.Op == OpWrite
	if st.Collective {
		if write {
			return of.f.WriteVecAll(p, of.fRank, vecs)
		}
		return of.f.ReadVecAll(p, of.fRank, vecs)
	}
	switch {
	case len(vecs) == 0:
		return 0
	case len(vecs) == 1:
		if write {
			return of.f.WriteAt(p, of.fRank, vecs[0].Off, vecs[0].Len)
		}
		return of.f.ReadAt(p, of.fRank, vecs[0].Off, vecs[0].Len)
	}
	if write {
		return of.f.WriteVec(p, of.fRank, vecs)
	}
	return of.f.ReadVec(p, of.fRank, vecs)
}

// hintsFor maps a FileSpec's knobs onto mpiio.Hints.
func hintsFor(f *FileSpec) mpiio.Hints {
	return mpiio.Hints{
		CollectiveBuffering: f.CollectiveBuffering,
		CBNodes:             f.CBNodes,
		CBBufferSize:        f.CBBufferBytes,
	}
}

// rankShift relabels events from a per-rank sub-world (always rank 0)
// with the true rank.
type rankShift struct {
	tr   mpiio.Tracer
	rank int
}

func (rs *rankShift) Record(ev mpiio.Event) {
	if rs.tr == nil {
		return
	}
	ev.Rank = rs.rank
	rs.tr.Record(ev)
}
