// Package sweep is a concurrent configuration-sweep engine for the
// paper's three-phase methodology: it takes a declarative grid of
// candidate I/O configurations (platform × device organization ×
// I/O-node count, plus user-supplied Build functions) and a set of
// workloads, evaluates every (configuration, workload) cell on a
// bounded worker pool, and aggregates the results deterministically
// into a ranked report — the Phase 2/3 "what-if" loop of the
// methodology, scaled out.
//
// Characterization (the expensive, per-configuration phase) is
// memoized per content fingerprint (core.Fingerprint — a hash of the
// cluster configuration plus normalized characterization parameters)
// with single-flight semantics: distinct configurations characterize
// in parallel, identical ones — even under different grid names —
// are characterized exactly once no matter how many workloads are
// evaluated against them. Evaluations are memoized the same way, so
// table/figure generators sharing an Engine (see internal/experiments)
// pay for each cell once per process. With a persistent store attached
// (SetStore), characterizations additionally survive the process: a
// warm re-run of a grid performs zero characterizations.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/fault"
	"ioeval/internal/telemetry"
	"ioeval/internal/workload"
	"ioeval/internal/workload/synth"
)

// Config is one candidate I/O configuration of a sweep.
type Config struct {
	// Name identifies the configuration in reports; it must be unique
	// within a grid (it is the ranking tie-break key).
	Name string
	// Build returns a fresh cluster of this configuration. It must be
	// safe to call from multiple goroutines (each call builds an
	// independent simulation).
	Build func() *cluster.Cluster
	// Char parameterizes the characterization phase.
	Char core.CharacterizeConfig
	// Fault, when non-nil, arms the plan on the evaluation cluster: the
	// cell measures the configuration under failure, against the
	// healthy characterization. Scenario cells share the healthy cell's
	// characterization automatically — the fault plan is evaluation-side
	// and not part of the content fingerprint.
	Fault *fault.Plan
}

// AppSpec is one workload of a sweep. New returns the App a cell
// evaluates; evaluations run concurrently, so an App that keeps state
// across runs must be fresh per call (a synth.App keeps none). On a
// parallel-FS cell (Config.Char.UsePFS) the engine runs a copy of a
// synthetic App with its NFS files on the parallel FS (synth.Remount),
// the filesystem the cell characterizes.
type AppSpec struct {
	Name string
	New  func() workload.App
}

// Engine evaluates sweep cells on a bounded worker pool, sharing
// memoized characterizations and evaluations across calls.
type Engine struct {
	workers int
	store   core.CharStore
	// charPool bounds concurrent characterization measurement units
	// engine-wide: cells share one pool instead of nesting a pool per
	// characterization, so total simulation concurrency stays bounded
	// by it no matter how many cells characterize at once. Safe — cell
	// workers hold no pool token while waiting on a characterization.
	charPool *core.CharPool

	mu    sync.Mutex
	fps   map[string]*flight[string]
	chars map[string]*flight[*core.Characterization]
	evals map[string]*flight[*core.Evaluation]

	nChar    atomic.Int64
	nCharHit atomic.Int64
	nEval    atomic.Int64
	nEvalHit atomic.Int64
}

// flight is one single-flight slot: the first caller computes the
// value on the slot's sync.Once, and every later caller reads the
// cached result, errors included.
type flight[T any] struct {
	once sync.Once
	val  T
	err  error
}

// do runs fn on the first call and reports whether the result was
// already cached (hit) rather than computed by this caller.
func (f *flight[T]) do(fn func() (T, error)) (hit bool) {
	hit = true
	f.once.Do(func() {
		hit = false
		f.val, f.err = fn()
	})
	return hit
}

// flightFor returns (creating if needed) the single-flight slot for
// key in m. The engine lock scopes exactly this map access — the
// expensive work runs outside it, on the slot's sync.Once.
func flightFor[T any](e *Engine, m map[string]*flight[T], key string) *flight[T] {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := m[key]
	if !ok {
		f = &flight[T]{}
		m[key] = f
	}
	return f
}

// NewEngine returns an engine with the given worker-pool size;
// workers <= 0 sizes the pool to runtime.GOMAXPROCS(0).
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:  workers,
		charPool: core.NewCharPool(workers),
		fps:      map[string]*flight[string]{},
		chars:    map[string]*flight[*core.Characterization]{},
		evals:    map[string]*flight[*core.Evaluation]{},
	}
}

// Workers returns the worker-pool size.
func (e *Engine) Workers() int { return e.workers }

// SetCharWorkers resizes the engine-wide characterization pool (the
// -char-workers CLI knob): n <= 0 sizes it to GOMAXPROCS, n == 1 makes
// every characterization sequential. Reports stay byte-identical at
// any size. Set it before the first Characterization/Run call.
func (e *Engine) SetCharWorkers(n int) { e.charPool = core.NewCharPool(n) }

// SetStore attaches a persistent characterization store: missing
// characterizations are looked up there before being measured and
// written back after. Set it before the first Characterization/Run
// call; a nil store keeps the engine purely in-memory.
func (e *Engine) SetStore(st core.CharStore) { e.store = st }

// fingerprintFor returns the memoized content fingerprint of cfg
// (single-flight per configuration name — computing one builds a
// probe cluster, so it is worth sharing across the config's cells).
func (e *Engine) fingerprintFor(cfg Config) (string, error) {
	f := flightFor(e, e.fps, cfg.Name)
	f.do(func() (string, error) { return core.Fingerprint(cfg.Build, cfg.Char) })
	return f.val, f.err
}

// Characterization returns the memoized characterization of cfg.
// Single-flight per content fingerprint: concurrent callers whose
// configs would measure identical tables block on one computation;
// distinct fingerprints proceed in parallel (the engine holds no lock
// across the measurement). With a store attached, the measurement is
// replaced by a store lookup when the entry exists — only actual
// measurements count toward the "characterizations" counter.
func (e *Engine) Characterization(cfg Config) (*core.Characterization, error) {
	if cfg.Build == nil {
		return nil, fmt.Errorf("sweep: config %q needs a Build function", cfg.Name)
	}
	fp, err := e.fingerprintFor(cfg)
	if err != nil {
		return nil, fmt.Errorf("sweep: fingerprint %s: %w", cfg.Name, err)
	}
	f := flightFor(e, e.chars, fp)
	hit := f.do(func() (*core.Characterization, error) {
		compute := func() (*core.Characterization, error) {
			e.nChar.Add(1)
			sess := core.NewSession(cfg.Build,
				core.WithCharacterizeConfig(cfg.Char),
				core.WithCharacterizePool(e.charPool))
			return sess.Characterization()
		}
		if e.store != nil {
			return e.store.GetOrCompute(fp, compute)
		}
		return compute()
	})
	if hit {
		e.nCharHit.Add(1)
	}
	if f.err != nil {
		return nil, fmt.Errorf("sweep: characterize %s: %w", cfg.Name, f.err)
	}
	return f.val, nil
}

// Evaluate returns the memoized evaluation of one (config, app) cell,
// characterizing the configuration first if no cached table set
// exists. Single-flight per cell key.
func (e *Engine) Evaluate(cfg Config, app AppSpec) (*core.Evaluation, error) {
	if app.New == nil {
		return nil, fmt.Errorf("sweep: app %q needs a New function", app.Name)
	}
	f := flightFor(e, e.evals, cfg.Name+"\x00"+app.Name)
	hit := f.do(func() (*core.Evaluation, error) {
		e.nEval.Add(1)
		ch, err := e.Characterization(cfg)
		if err != nil {
			return nil, err
		}
		w := app.New()
		if cfg.Char.UsePFS {
			if w, err = synth.Remount(w, "pfs"); err != nil {
				return nil, err
			}
		}
		opts := []core.SessionOption{core.WithCharacterization(ch)}
		if cfg.Fault != nil && !cfg.Fault.Empty() {
			opts = append(opts, core.WithFaultPlan(*cfg.Fault))
			return core.NewSession(cfg.Build, opts...).EvaluateScenario(w)
		}
		return core.NewSession(cfg.Build, opts...).Evaluate(w)
	})
	if hit {
		e.nEvalHit.Add(1)
	}
	if f.err != nil {
		return nil, fmt.Errorf("sweep: evaluate %s on %s: %w", app.Name, cfg.Name, f.err)
	}
	return f.val, nil
}

var _ telemetry.Probe = (*Engine)(nil)

// Snapshot implements telemetry.Probe: the engine's own counters —
// characterizations and evaluations actually computed vs. served from
// cache — as auxiliary counters, so sweeps can assert (and reports can
// show) that each unique configuration was characterized exactly once.
func (e *Engine) Snapshot() telemetry.Snapshot {
	return telemetry.Snapshot{
		Component: "sweep-engine",
		Level:     telemetry.LevelLibrary,
		Units:     int64(e.workers),
		Counters: telemetry.Counters{
			Aux: map[string]int64{
				"characterizations": e.nChar.Load(),
				"char_cache_hits":   e.nCharHit.Load(),
				"evaluations":       e.nEval.Load(),
				"eval_cache_hits":   e.nEvalHit.Load(),
			},
		},
	}
}

// Run evaluates every (config, app) cell of the grid on the worker
// pool and aggregates the results into a ranked report. The report is
// deterministic: identical grids produce byte-identical reports
// regardless of worker count or completion order. Any cell failure
// fails the run with all cell errors joined.
func (e *Engine) Run(grid Grid, rank Metric) (*Report, error) {
	if len(grid.Configs) == 0 {
		return nil, errors.New("sweep: grid has no configurations")
	}
	if len(grid.Apps) == 0 {
		return nil, errors.New("sweep: grid has no workloads")
	}
	seen := map[string]bool{}
	for _, cfg := range grid.Configs {
		if seen[cfg.Name] {
			return nil, fmt.Errorf("sweep: duplicate configuration name %q", cfg.Name)
		}
		seen[cfg.Name] = true
	}

	nApps := len(grid.Apps)
	cells := make([]*Cell, len(grid.Configs)*nApps)
	errs := make([]error, len(cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := e.workers
	if workers > len(cells) {
		workers = len(cells)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				cfg, app := grid.Configs[idx/nApps], grid.Apps[idx%nApps]
				ev, err := e.Evaluate(cfg, app)
				if err != nil {
					errs[idx] = err
					continue
				}
				cells[idx] = newCell(cfg.Name, app.Name, ev)
			}
		}()
	}
	for idx := range cells {
		jobs <- idx
	}
	close(jobs)
	wg.Wait()

	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return newReport(grid, rank, cells), nil
}
