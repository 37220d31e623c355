package sweep

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/fault"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

// synthGrid puts a declarative BT-IO spec on the grid's Specs axis
// across two organizations and a degraded scenario.
func synthGrid(t *testing.T) (Grid, string) {
	t.Helper()
	slow, err := fault.Builtin("slow-disk")
	if err != nil {
		t.Fatal(err)
	}
	spec := btio.New(btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full}).Spec()
	spec.Name = "btio-synth"
	grid := GridSpec{
		Platforms: []cluster.Config{tinyBase("alpha", 2)},
		Orgs:      []cluster.Organization{cluster.JBOD, cluster.RAID5},
		Char:      quickChar(),
		Scenarios: []fault.Plan{slow},
		Specs:     []*synth.Spec{spec},
	}.Grid()
	return grid, spec.Name
}

// TestSynthSweepDeterminism is the sweep acceptance for the synthetic
// plane: a spec-driven cell runs end to end through the engine —
// healthy and under a fault scenario — with byte-identical reports on
// 1 and 8 workers.
func TestSynthSweepDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep grid skipped in -short mode")
	}
	grid, synthName := synthGrid(t)
	if len(grid.Apps) != 1 {
		t.Fatalf("grid apps = %d, want 1 (the spec)", len(grid.Apps))
	}

	type run struct {
		workers int
		json    []byte
		text    []byte
	}
	runs := []*run{{workers: 1}, {workers: 8}}
	for _, r := range runs {
		eng := NewEngine(r.workers)
		rep, err := eng.Run(grid, ByIOTime)
		if err != nil {
			t.Fatalf("run (%d workers): %v", r.workers, err)
		}
		r.json, r.text = reportBytes(t, rep)

		// 2 orgs × (healthy + slow-disk) = 4 synth cells, two of them degraded.
		nSynth, degraded := 0, 0
		for _, cell := range rep.Cells {
			if cell.App != synthName {
				continue
			}
			nSynth++
			if cell.Scenario != "" {
				degraded++
				if !strings.HasSuffix(cell.Config, "/"+cell.Scenario) {
					t.Errorf("degraded synth cell %q lacks scenario suffix", cell.Config)
				}
			}
		}
		if nSynth != 4 {
			t.Errorf("%d workers: %d synthetic cells, want 4", r.workers, nSynth)
		}
		if degraded != 2 {
			t.Errorf("%d workers: %d degraded synthetic cells, want 2", r.workers, degraded)
		}
	}
	if !bytes.Equal(runs[0].json, runs[1].json) {
		t.Errorf("JSON reports differ between 1 and 8 workers:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s",
			runs[0].json, runs[1].json)
	}
	if !bytes.Equal(runs[0].text, runs[1].text) {
		t.Errorf("text reports differ between 1 and 8 workers")
	}
}

// TestSynthSweepInvalidSpec: an invalid spec must fail its cells with
// the compiler's structured error, not panic the expansion or the
// worker pool.
func TestSynthSweepInvalidSpec(t *testing.T) {
	bad := &synth.Spec{Name: "bad", Procs: 0}
	grid := GridSpec{
		Platforms: []cluster.Config{tinyBase("alpha", 2)},
		Char:      quickChar(),
		Specs:     []*synth.Spec{bad},
	}.Grid()
	if len(grid.Apps) != 1 {
		t.Fatalf("grid apps = %d, want 1", len(grid.Apps))
	}
	_, err := NewEngine(2).Run(grid, ByIOTime)
	if err == nil {
		t.Fatal("sweep accepted an invalid spec")
	}
	var se *synth.Error
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not wrap the compiler's *synth.Error", err)
	}
}

// TestSynthRemountConcurrentCells runs one spec, shared by every cell,
// on NFS and parallel-FS cells at once: each pfs-n cell runs a
// remounted copy (synth.Remount), so the spec it was given must come
// out unchanged. Run under -race, this also checks that no cell writes
// to the shared spec.
func TestSynthRemountConcurrentCells(t *testing.T) {
	spec := btio.New(btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Simple}).Spec()
	spec.Name = "btio-shared-spec"
	var before bytes.Buffer
	if err := spec.WriteJSON(&before); err != nil {
		t.Fatal(err)
	}
	grid := GridSpec{
		Platforms:  []cluster.Config{tinyBase("alpha", 2), tinyBase("beta", 2)},
		Orgs:       []cluster.Organization{cluster.JBOD, cluster.RAID5},
		PFSIONodes: []int{0, 2},
		Char:       quickChar(),
		Specs:      []*synth.Spec{spec},
	}.Grid()
	rep, err := NewEngine(4).Run(grid, ByIOTime)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 8 {
		t.Fatalf("%d cells, want 8", len(rep.Cells))
	}
	var after bytes.Buffer
	if err := spec.WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("running the cells changed the shared spec:\n--- before ---\n%s\n--- after ---\n%s", before.Bytes(), after.Bytes())
	}
}
