package sweep

import (
	"runtime"
	"testing"

	"ioeval/internal/core"
	"ioeval/internal/workload/synth"
)

// The acceptance benches: the engine must beat a sequential per-cell
// baseline. The win has two parts — one characterization per unique
// configuration instead of one per (configuration, workload) cell,
// and worker-pool fan-out across cells on multicore hosts.

// BenchmarkSweepSequentialBaseline reproduces the pre-engine loop:
// every cell characterizes its own configuration and evaluates, one
// cell at a time, nothing shared.
func BenchmarkSweepSequentialBaseline(b *testing.B) {
	grid := testGrid()
	for i := 0; i < b.N; i++ {
		for _, cfg := range grid.Configs {
			for _, app := range grid.Apps {
				w := app.New()
				if cfg.Char.UsePFS {
					var err error
					if w, err = synth.Remount(w, "pfs"); err != nil {
						b.Fatal(err)
					}
				}
				sess := core.NewSession(cfg.Build, core.WithCharacterizeConfig(cfg.Char))
				if _, err := sess.Evaluate(w); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func benchEngine(b *testing.B, workers int) {
	grid := testGrid()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(workers) // fresh engine: cold caches every iteration
		if _, err := eng.Run(grid, ByIOTime); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepEngine1Worker isolates the characterization-sharing
// win (no parallelism).
func BenchmarkSweepEngine1Worker(b *testing.B) { benchEngine(b, 1) }

// BenchmarkSweepEngineParallel adds worker fan-out on top.
func BenchmarkSweepEngineParallel(b *testing.B) {
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "workers")
	benchEngine(b, 0)
}
