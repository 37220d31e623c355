package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/trace"
)

// The characterization shard plan (DESIGN.md §14).
//
// A Characterization is a set of measurement points, each the paper's
// independently stressed table row. This file decomposes the phase
// into an ordered slice of self-describing measurement units, runs
// each on its own freshly built cluster, and merges the per-unit rows
// back in plan order. Because every unit starts from an identical
// fresh cluster, a unit's rows are a pure function of (cluster config,
// unit spec) — independent of when, on which goroutine, or next to
// which other units it runs — so the merged tables are byte-identical
// at any worker count by construction.
//
// Granularity: one unit covers one (level × block size) point with the
// level's full mode list inside — modes at one block size share file
// contents (a write mode populates what the paired read mode
// consumes), so they stay ordered within the unit, while distinct
// block sizes re-create their file from scratch and shard cleanly.
// Characterization always measures the healthy system; fault plans
// are an evaluation-side what-if (Session's WithFaultPlan).

// charUnit is one self-describing measurement unit of the shard plan.
type charUnit struct {
	Level     Level
	Modes     []bench.Mode // filesystem levels; nil for the library level
	BlockSize int64
	FileSize  int64
}

// charPlan builds the shard plan for a withDefaults-normalized config.
// Plan order is the canonical merge order: levels in the fixed
// local → global → library sequence, block sizes in sweep order.
func charPlan(cfg CharacterizeConfig) []charUnit {
	var units []charUnit
	add := func(level Level, modes []bench.Mode, sizes []int64, fileSize int64) {
		for _, bs := range sizes {
			units = append(units, charUnit{Level: level, Modes: modes,
				BlockSize: bs, FileSize: fileSize})
		}
	}
	add(LevelLocalFS, cfg.FSModes, cfg.FSBlockSizes, cfg.LocalFileSize)
	add(LevelNFS, cfg.FSModes, cfg.FSBlockSizes, cfg.GlobalFileSize)
	add(LevelIOLib, nil, cfg.LibBlockSizes, cfg.LibFileSize)
	return units
}

// mergeUnits assembles per-unit rows into the level tables in plan
// order — the single place table row order is decided, which is what
// the merge property test exercises.
func mergeUnits(name string, units []charUnit, rows [][]Row) *Characterization {
	ch := &Characterization{Config: name, Tables: map[Level]*PerfTable{}}
	for i, u := range units {
		t := ch.Tables[u.Level]
		if t == nil {
			t = &PerfTable{Level: u.Level, Config: name}
			ch.Tables[u.Level] = t
		}
		for _, r := range rows[i] {
			t.Add(r)
		}
	}
	return ch
}

// measureUnit runs one unit on a fresh cluster and returns its table
// rows. The unit owns the cluster's engine for the whole measurement.
func measureUnit(c *cluster.Cluster, cfg CharacterizeConfig, u charUnit) ([]Row, error) {
	switch u.Level {
	case LevelLocalFS:
		// Local filesystem level: IOzone on the I/O node's own mount,
		// caches dropped between runs.
		localFS := fs.Interface(c.ServerFS)
		drop := func(p *sim.Proc) { c.IOCache.DropCaches(ioreq.Meta(p)) }
		if cfg.UsePFS {
			localFS = c.PFS.Servers()[0].Backend()
			drop = nil // PFS server backends sit on plain node caches
		}
		results, err := runIOzoneUnit(c, localFS, "/char-local.tmp", cfg, u, drop)
		if err != nil {
			return nil, fmt.Errorf("local FS characterization: %w", err)
		}
		return rowsFromIOzone(Local, results), nil
	case LevelNFS:
		// Global filesystem level: IOzone through a compute node's
		// mount of the shared storage; caches dropped between runs.
		globalFS := fs.Interface(c.Nodes[0].NFS)
		drop := func(p *sim.Proc) {
			m := ioreq.Meta(p)
			c.IOCache.DropCaches(m)
			c.Nodes[0].NFS.DropCaches(m)
		}
		if cfg.UsePFS {
			globalFS = c.Nodes[0].PFS
			drop = nil // PFS performs no client caching
		}
		results, err := runIOzoneUnit(c, globalFS, "/char-global.tmp", cfg, u, drop)
		if err != nil {
			return nil, fmt.Errorf("network FS characterization: %w", err)
		}
		return rowsFromIOzone(Global, results), nil
	case LevelIOLib:
		// I/O library level: IOR over MPI-IO on the shared storage.
		var drop func(p *sim.Proc)
		if !cfg.UsePFS {
			drop = func(p *sim.Proc) { c.IOCache.DropCaches(ioreq.Meta(p)) }
		}
		iorCfg := bench.IORConfig{
			Path:         "/char-lib.tmp",
			Procs:        cfg.LibProcs,
			FileSize:     u.FileSize,
			TransferSize: cfg.LibTransfer,
			UsePFS:       cfg.UsePFS,
			BetweenRuns:  drop,
		}
		r, err := bench.RunIORPoint(c, iorCfg, u.BlockSize)
		if err != nil {
			return nil, fmt.Errorf("library characterization: %w", err)
		}
		// Library-level IOPS/latency derive from the transfer size
		// (IOR issues one library call per transfer).
		ts := float64(cfg.LibTransfer)
		return []Row{
			{Op: Write, BlockSize: r.BlockSize, Access: Global, Mode: trace.Sequential,
				Rate: r.WriteRate, IOPS: r.WriteRate / ts,
				Latency: sim.DurationFromSeconds(ts / r.WriteRate)},
			{Op: Read, BlockSize: r.BlockSize, Access: Global, Mode: trace.Sequential,
				Rate: r.ReadRate, IOPS: r.ReadRate / ts,
				Latency: sim.DurationFromSeconds(ts / r.ReadRate)},
		}, nil
	}
	return nil, fmt.Errorf("characterize: unknown level %v", u.Level)
}

// runIOzoneUnit runs the unit's block size through the per-block bench
// entry point, preserving the within-unit mode order the measurements
// depend on.
func runIOzoneUnit(c *cluster.Cluster, fsi fs.Interface, path string,
	cfg CharacterizeConfig, u charUnit, drop func(p *sim.Proc)) ([]bench.IOzoneResult, error) {
	return bench.RunIOzoneBlock(c.Eng, fsi, bench.IOzoneConfig{
		Path:        path,
		FileSize:    u.FileSize,
		Modes:       u.Modes,
		RandomOps:   cfg.RandomOps,
		BetweenRuns: drop,
	}, u.BlockSize)
}

func rowsFromIOzone(access AccessType, results []bench.IOzoneResult) []Row {
	rows := make([]Row, 0, len(results))
	for _, r := range results {
		op := Read
		if r.Mode.IsWrite() {
			op = Write
		}
		mode := trace.Sequential
		switch {
		case r.Mode.IsStrided():
			mode = trace.Strided
		case !r.Mode.IsSequential():
			mode = trace.Random
		}
		rows = append(rows, Row{Op: op, BlockSize: r.BlockSize, Access: access, Mode: mode,
			Rate: r.Rate, IOPS: r.IOPS, Latency: r.Latency})
	}
	return rows
}

// CharPool bounds how many measurement units run concurrently. One
// pool can back many sessions — sweep shares a single engine-wide pool
// across its cells instead of nesting one per cell — because tokens
// are held only while a unit's cluster is measuring, never while
// waiting on other units.
type CharPool struct {
	sem chan struct{}
}

// NewCharPool returns a pool running up to workers units at once;
// workers <= 0 sizes it to GOMAXPROCS.
func NewCharPool(workers int) *CharPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &CharPool{sem: make(chan struct{}, workers)}
}

// Workers reports the pool's concurrency bound.
func (p *CharPool) Workers() int { return cap(p.sem) }

func (p *CharPool) acquire() { p.sem <- struct{}{} }
func (p *CharPool) release() { <-p.sem }

// runPlan executes every unit and returns the per-unit rows indexed in
// plan order. With a nil pool or a single worker the units run inline,
// sequentially, on the calling goroutine — build need not be safe for
// concurrent use. Otherwise units fan out over goroutines bounded by
// the pool; each writes only its own plan slot, so the result — and
// every table merged from it — is identical either way.
func runPlan(build func() *cluster.Cluster, cfg CharacterizeConfig,
	units []charUnit, pool *CharPool) ([][]Row, error) {
	rows := make([][]Row, len(units))
	if pool == nil || pool.Workers() <= 1 {
		for i, u := range units {
			r, err := measureUnit(build(), cfg, u)
			if err != nil {
				return nil, err
			}
			rows[i] = r
		}
		return rows, nil
	}
	errs := make([]error, len(units))
	var wg sync.WaitGroup
	for i := range units {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool.acquire()
			defer pool.release()
			rows[i], errs[i] = measureUnit(build(), cfg, units[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		// First error in plan order, so failures report as
		// deterministically as successes merge.
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// reuseProbe wraps build so the first call is served by the probe
// cluster withDefaults already built: the probe is still virgin
// (withDefaults only reads configuration), so it is indistinguishable
// from a fresh build and need not be thrown away.
func reuseProbe(probe *cluster.Cluster, build func() *cluster.Cluster) func() *cluster.Cluster {
	var used atomic.Bool
	return func() *cluster.Cluster {
		if used.CompareAndSwap(false, true) {
			return probe
		}
		return build()
	}
}
