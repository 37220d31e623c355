package core

import (
	"bytes"
	"math/rand"
	"sync/atomic"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/trace"
)

// TestCharPlanShape pins the shard-plan granularity contract: configs
// shard per (level × block size) with the full mode list inside a
// unit.
func TestCharPlanShape(t *testing.T) {
	base := goldenCharCfg() // 2 FS block sizes, 1 library point

	t.Run("healthy", func(t *testing.T) {
		units := charPlan(base)
		want := 2*len(base.FSBlockSizes) + len(base.LibBlockSizes)
		if len(units) != want {
			t.Fatalf("len(units) = %d, want %d", len(units), want)
		}
		// Canonical order: local FS block sizes in sweep order, then
		// global FS, then library points.
		idx := 0
		for _, level := range []Level{LevelLocalFS, LevelNFS} {
			for _, bs := range base.FSBlockSizes {
				u := units[idx]
				idx++
				if u.Level != level || u.BlockSize != bs {
					t.Fatalf("unit %d = %+v, want level %v bs %d", idx-1, u, level, bs)
				}
				if len(u.Modes) != len(base.FSModes) {
					t.Fatalf("unit %d carries %d modes, want the full list (%d)", idx-1, len(u.Modes), len(base.FSModes))
				}
			}
		}
		for _, bs := range base.LibBlockSizes {
			u := units[idx]
			idx++
			if u.Level != LevelIOLib || u.BlockSize != bs {
				t.Fatalf("unit %d = %+v, want library bs %d", idx-1, u, bs)
			}
		}
		if units[0].FileSize != base.LocalFileSize || units[len(units)-1].FileSize != base.LibFileSize {
			t.Fatal("unit file sizes do not follow their level")
		}
	})
}

// TestCharPlanMergePermutation is the merge property test (modeled on
// table_property_test.go): for randomized shard plans and synthetic
// per-unit rows, delivering unit results in ANY completion order must
// merge to byte-identical tables — the canonical row order is a
// function of the plan alone, never of scheduling.
func TestCharPlanMergePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(20110926))
	randSizes := func(n int) []int64 {
		sizes := make([]int64, 0, n)
		for len(sizes) < n {
			sizes = append(sizes, (1+int64(rng.Intn(1<<10)))*1024)
		}
		return sizes
	}
	for trial := 0; trial < 50; trial++ {
		cfg := CharacterizeConfig{
			FSBlockSizes:   randSizes(1 + rng.Intn(6)),
			FSModes:        []bench.Mode{bench.SeqWrite, bench.SeqRead}[:1+rng.Intn(2)],
			LocalFileSize:  64 << 20,
			GlobalFileSize: 64 << 20,
			LibProcs:       2,
			LibBlockSizes:  randSizes(1 + rng.Intn(4)),
			LibTransfer:    256 << 10,
			LibFileSize:    16 << 20,
			RandomOps:      64,
		}
		units := charPlan(cfg)

		// Synthetic rows: a deterministic function of the unit's plan
		// index, so a misplaced merge shows up as misplaced rates.
		rowsFor := func(i int) []Row {
			bs := units[i].BlockSize
			return []Row{{Op: Write, BlockSize: bs, Access: Global,
				Mode: trace.Sequential, Rate: float64(1000*i) + float64(bs%997)}}
		}
		reference := make([][]Row, len(units))
		for i := range units {
			reference[i] = rowsFor(i)
		}
		want := mergeUnits("perm", units, reference)

		for p := 0; p < 20; p++ {
			// Simulate an arbitrary completion order: workers finish
			// units in permuted order, each writing its own plan slot.
			rows := make([][]Row, len(units))
			for _, i := range rng.Perm(len(units)) {
				rows[i] = rowsFor(i)
			}
			got := mergeUnits("perm", units, rows)
			if !sameTables(t, got, want) {
				t.Fatalf("trial %d perm %d: merged tables differ from canonical order", trial, p)
			}
		}
	}
}

// sameTables compares two characterizations byte-wise through the
// persistence encoding — the same surface the store round-trips.
func sameTables(t *testing.T, a, b *Characterization) bool {
	t.Helper()
	var ab, bb bytes.Buffer
	if err := a.WriteJSON(&ab); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := b.WriteJSON(&bb); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return bytes.Equal(ab.Bytes(), bb.Bytes())
}

// TestCharacterizeProbeReuse: the probe cluster withDefaults needs is
// not thrown away — it serves one measurement unit, so characterize
// builds exactly len(plan) clusters, sequentially or pooled.
func TestCharacterizeProbeReuse(t *testing.T) {
	cfg := goldenCharCfg()
	wantBuilds := int64(len(charPlan(cfg)))
	for _, workers := range []int{1, 4} {
		var builds atomic.Int64
		build := func() *cluster.Cluster {
			builds.Add(1)
			return goldenCluster()
		}
		var pool *CharPool
		if workers > 1 {
			pool = NewCharPool(workers)
		}
		if _, err := characterize(build, cfg, pool); err != nil {
			t.Fatalf("characterize (workers=%d): %v", workers, err)
		}
		if builds.Load() != wantBuilds {
			t.Errorf("workers=%d: Build called %d times, want %d (probe reused for a unit)",
				workers, builds.Load(), wantBuilds)
		}
	}
}
