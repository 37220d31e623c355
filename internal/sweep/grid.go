package sweep

import (
	"fmt"

	"ioeval/internal/catalog"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/fault"
	"ioeval/internal/mpiio"
	"ioeval/internal/workload"
	"ioeval/internal/workload/synth"
)

// Grid is the cross-product a sweep evaluates: every configuration ×
// every workload. Configs may come from a GridSpec expansion, from
// hand-built entries with custom Build functions, or both.
type Grid struct {
	Configs []Config
	Apps    []AppSpec
}

// GridSpec declares a sweep grid along the methodology's
// configuration-analysis axes: base platforms, device organizations
// on the I/O node, and parallel-filesystem I/O-node counts. The
// expansion is the full cross-product.
type GridSpec struct {
	// Platforms are the base cluster configurations (the platform
	// axis). Each must have a unique Name.
	Platforms []cluster.Config
	// Orgs is the device-organization axis; empty keeps each
	// platform's own organization. A platform gets no cell for an
	// organization the catalogue says it does not have (catalog.Org).
	Orgs []cluster.Organization
	// PFSIONodes is the I/O-node-count axis: 0 evaluates the
	// platform's NFS path, n > 0 deploys a PVFS-like parallel FS over
	// n dedicated I/O nodes, characterizes against it (Char.UsePFS set
	// on the cell) and runs every synthetic workload's NFS files on it.
	// Empty keeps each platform's own setting.
	PFSIONodes []int
	// Char parameterizes characterization for every expanded config
	// (UsePFS is set per cell from the I/O-node axis).
	Char core.CharacterizeConfig
	// Scenarios is the fault-scenario axis: each plan adds a degraded
	// variant of every cell, evaluated under the plan against the
	// healthy cell's characterization (shared automatically — both
	// cells fingerprint identically). An
	// empty (zero) plan in the list stands for the healthy run; when
	// the list omits it, the healthy cell is still emitted first.
	// Plans that require redundancy (disk failures) are skipped on
	// JBOD configurations, where no degraded mode exists.
	Scenarios []fault.Plan
	// Apps is the workload axis.
	Apps []AppSpec
	// Specs extends the workload axis with declarative synthetic
	// workloads (internal/workload/synth): each spec becomes one cell
	// column, compiled freshly per evaluation. An invalid spec fails
	// its cells with the compiler's structured error rather than
	// aborting grid expansion.
	Specs []*synth.Spec
}

// specApp adapts one synthetic spec to the workload axis, deferring
// compilation to evaluation time (cells run concurrently; Compile is
// cheap and yields an independent App per call).
type specApp struct{ spec *synth.Spec }

func (a specApp) Name() string {
	if a.spec.Name != "" {
		return a.spec.Name
	}
	return "synthetic"
}

func (a specApp) Procs() int { return a.spec.Procs }

// Spec returns the spec, so synth.Remount can move its files.
func (a specApp) Spec() *synth.Spec { return a.spec }

func (a specApp) Run(c *cluster.Cluster, tr mpiio.Tracer) (workload.Result, error) {
	app, err := synth.Compile(a.spec)
	if err != nil {
		return workload.Result{}, err
	}
	return app.Run(c, tr)
}

// Grid expands the spec into the explicit configuration × workload
// grid. Config names are "<platform>/<org>" plus "/pfs-<n>" on
// parallel-FS cells, so rankings read as the paper's configuration
// labels.
func (s GridSpec) Grid() Grid {
	g := Grid{Apps: append([]AppSpec(nil), s.Apps...)}
	for _, sp := range s.Specs {
		app := specApp{spec: sp}
		g.Apps = append(g.Apps, AppSpec{
			Name: app.Name(),
			New:  func() workload.App { return app },
		})
	}
	for _, base := range s.Platforms {
		orgs := s.Orgs
		if len(orgs) == 0 {
			orgs = []cluster.Organization{base.Org}
		}
		ioNodes := s.PFSIONodes
		if len(ioNodes) == 0 {
			ioNodes = []int{base.PFSIONodes}
		}
		for _, org := range orgs {
			if catalog.Org(base.Name, org) != org {
				continue // the platform has no such configuration
			}
			for _, n := range ioNodes {
				cfg := base
				cfg.Org = org
				cfg.PFSIONodes = n
				name := fmt.Sprintf("%s/%s", cfg.Name, org)
				if n > 0 {
					name = fmt.Sprintf("%s/pfs-%d", name, n)
				}
				char := s.Char
				char.UsePFS = n > 0
				build := func() *cluster.Cluster { return cluster.New(cfg) }
				healthy := Config{
					Name:  name,
					Build: build,
					Char:  char,
				}
				g.Configs = append(g.Configs, healthy)
				for _, sc := range s.Scenarios {
					if sc.Empty() {
						continue // the healthy cell above covers it
					}
					if sc.RequiresRedundancy() && org == cluster.JBOD {
						continue // no degraded mode to evaluate
					}
					sc := sc
					// Scenario cells share the healthy cell's characterization
					// automatically: the fault plan is evaluation-side, so both
					// cells carry the same content fingerprint.
					g.Configs = append(g.Configs, Config{
						Name:  fmt.Sprintf("%s/%s", name, sc.Name),
						Build: build,
						Char:  char,
						Fault: &sc,
					})
				}
			}
		}
	}
	return g
}
