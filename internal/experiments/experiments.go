// Package experiments regenerates every table and figure of the
// paper's evaluation (Sections III–IV) on the simulated platforms.
// Each experiment function is memoized: the bench harness
// (bench_test.go) and the shape assertions (experiments_test.go)
// share one execution per process.
//
// Absolute numbers come from the simulated substrate, not the
// authors' hardware — EXPERIMENTS.md records, per artifact, the shape
// that must (and does) hold.
package experiments

import (
	"fmt"
	"strings"

	"ioeval/internal/bench"
	"ioeval/internal/catalog"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/sweep"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
)

// Artifact is one regenerated table or figure.
type Artifact struct {
	ID    string // e.g. "fig5", "tab3"
	Title string
	Text  string // printable reproduction
}

func (a Artifact) String() string {
	return fmt.Sprintf("==== %s — %s ====\n%s", strings.ToUpper(a.ID), a.Title, a.Text)
}

// Platform identifies one of the paper's clusters by its catalogue
// name.
type Platform string

// The two experimental platforms.
const (
	Aohyper  Platform = "aohyper"
	ClusterA Platform = "clusterA"
)

func (pl Platform) String() string {
	if pl == Aohyper {
		return "Aohyper"
	}
	return "ClusterA"
}

// orgs returns the paper's configurations of Fig. 4 that the platform
// has, as the catalogue says (Cluster A: RAID 5 only).
func (pl Platform) orgs() []cluster.Organization {
	var out []cluster.Organization
	for _, org := range AohyperOrgs {
		if catalog.Org(string(pl), org) == org {
			out = append(out, org)
		}
	}
	return out
}

// AohyperOrgs is the paper's three configurations of Fig. 4.
var AohyperOrgs = []cluster.Organization{cluster.JBOD, cluster.RAID1, cluster.RAID5}

// charConfig returns the paper's characterization parameters for a
// platform (core.DefaultCharacterizeConfig), kept affordable:
// sequential plus random modes (strided phases fall back to random in
// the table search) with half the random operations.
func charConfig(pl Platform) core.CharacterizeConfig {
	cfg := core.DefaultCharacterizeConfig()
	cfg.FSModes = []bench.Mode{bench.SeqWrite, bench.SeqRead, bench.RandWrite, bench.RandRead}
	cfg.RandomOps = 2048
	if pl == ClusterA {
		cfg.LibFileSize = 40 << 30 // the paper used 40 GB on cluster A
	}
	return cfg
}

// --- sweep-engine backing --------------------------------------------
//
// All table/figure experiments run through one shared sweep.Engine:
// characterizations are single-flight per configuration, evaluations
// memoized per (configuration, application) cell, and the bench
// harness and shape tests share one execution per process — the same
// machinery cmd/iosweep exposes for what-if studies.

var engine = sweep.NewEngine(0)

// Engine returns the process-wide sweep engine backing the
// experiments (its telemetry snapshot counts characterizations and
// evaluations actually computed vs. served from cache).
func Engine() *sweep.Engine { return engine }

// sweepConfig is the sweep-engine cell key for a platform/organization,
// as the catalogue resolves the organization.
func sweepConfig(pl Platform, org cluster.Organization) sweep.Config {
	org = catalog.Org(string(pl), org)
	build, err := catalog.Builder(string(pl), org, 0)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return sweep.Config{Name: fmt.Sprintf("%v/%v", pl, org), Build: build, Char: charConfig(pl)}
}

// BTIOSpec returns the sweep workload spec of a BT-IO run.
func BTIOSpec(procs int, st btio.Subtype) sweep.AppSpec {
	return appSpec(fmt.Sprintf("btio/%d/%v", procs, st), "btio-"+st.String(), procs)
}

// MadBenchSpec returns the sweep workload spec of a MADbench2 run.
func MadBenchSpec(procs int, ft madbench.FileType) sweep.AppSpec {
	return appSpec(fmt.Sprintf("madbench/%d/%v", procs, ft), "madbench-"+strings.ToLower(ft.String()), procs)
}

// appSpec is the sweep workload spec of a catalogue workload at the
// paper's size.
func appSpec(name, entry string, procs int) sweep.AppSpec {
	return sweep.AppSpec{Name: name, New: func() workload.App {
		app, err := catalog.Workload(entry, procs, false)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		return app
	}}
}

// Characterization returns (computing once) the three-level
// characterization of a platform/organization.
func Characterization(pl Platform, org cluster.Organization) *core.Characterization {
	cfg := sweepConfig(pl, org)
	ch, err := engine.Characterization(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: characterize %s: %v", cfg.Name, err))
	}
	return ch
}

// EvalBTIO returns (computing once) the evaluation of NAS BT-IO on a
// platform/organization.
func EvalBTIO(pl Platform, org cluster.Organization, procs int, st btio.Subtype) *core.Evaluation {
	return eval(sweepConfig(pl, org), BTIOSpec(procs, st))
}

// EvalMadBench returns (computing once) the evaluation of MADbench2.
func EvalMadBench(pl Platform, org cluster.Organization, procs int, ft madbench.FileType) *core.Evaluation {
	return eval(sweepConfig(pl, org), MadBenchSpec(procs, ft))
}

func eval(cfg sweep.Config, app sweep.AppSpec) *core.Evaluation {
	ev, err := engine.Evaluate(cfg, app)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return ev
}

// SweepBTIOAohyper ranks Aohyper's three device organizations for the
// two BT-IO subtypes through the sweep engine — the methodology's
// configuration-recommendation loop as one artifact. It shares the
// engine's evaluation cache with the Table III/IV and Fig. 12
// generators, so the ranked view costs no extra runs.
func SweepBTIOAohyper() Artifact {
	grid := sweep.Grid{
		Apps: []sweep.AppSpec{BTIOSpec(16, btio.Full), BTIOSpec(16, btio.Simple)},
	}
	for _, org := range Aohyper.orgs() {
		grid.Configs = append(grid.Configs, sweepConfig(Aohyper, org))
	}
	rep, err := engine.Run(grid, sweep.ByIOTime)
	if err != nil {
		panic(fmt.Sprintf("experiments: sweep: %v", err))
	}
	return Artifact{
		ID:    "sweep-btio",
		Title: "Configuration sweep — NAS BT-IO class C, 16 processes, Aohyper organizations",
		Text:  rep.String(),
	}
}
