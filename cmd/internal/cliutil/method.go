package cliutil

import (
	"flag"
	"fmt"

	"ioeval/internal/catalog"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/workload"
	"ioeval/internal/workload/synth"
)

// Method is the methodology run iomethod and iosynth share: the flags
// they both take, the session built from them, and the report printed
// after Session.Run.
type Method struct {
	platform, org, faultName, metrics *string
	pfs                               *int
	seed                              *int64
	utilization, spans                *bool
	stored                            *Stored
}

// MethodFlags registers the shared flags of a methodology run on fs;
// Parse rejects a negative -pfs.
func MethodFlags(fs *flag.FlagSet) *Method {
	m := &Method{
		platform:    EnumFlag(fs, "platform", "aohyper", "cluster to simulate: aohyper or clusterA", catalog.Platforms...),
		org:         EnumFlag(fs, "org", "raid5", "Aohyper device organization: jbod, raid1 or raid5", catalog.Orgs...),
		pfs:         fs.Int("pfs", 0, "deploy a PVFS-like parallel FS over N I/O nodes and run against it"),
		utilization: fs.Bool("utilization", false, "print the cluster utilization report after evaluation"),
		faultName:   FaultFlag(fs),
		seed:        SeedFlag(fs),
		spans:       SpansFlag(fs),
		metrics:     MetricsFlag(fs),
		stored:      StoredFlags(fs),
	}
	checks[fs] = append(checks[fs], func() error {
		if *m.pfs < 0 {
			return fmt.Errorf("invalid value %d for flag -pfs: want 0 or more", *m.pfs)
		}
		return nil
	})
	return m
}

// UsePFS reports whether the run targets the parallel FS (-pfs > 0).
func (m *Method) UsePFS() bool { return *m.pfs > 0 }

// Builder returns the fresh-cluster builder of -platform, -org and
// -pfs.
func (m *Method) Builder() (func() *cluster.Cluster, error) {
	org, err := catalog.ParseOrg(*m.org)
	if err != nil {
		return nil, err
	}
	return catalog.Builder(*m.platform, org, *m.pfs)
}

// Session builds the run's session on build: -char-workers, the -fault
// plan (with -seed) and -store, plus source, the option that says
// where the characterization comes from.
func (m *Method) Session(build func() *cluster.Cluster, source core.SessionOption) (*core.Session, error) {
	opts := []core.SessionOption{source, core.WithCharacterizeWorkers(*m.stored.workers)}
	plan, err := FaultPlan(*m.faultName, *m.seed)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		opts = append(opts, core.WithFaultPlan(*plan))
	}
	if err := m.stored.open(); err != nil {
		return nil, err
	}
	if m.stored.Store != nil {
		opts = append(opts, core.WithStore(m.stored.Store))
	}
	return core.NewSession(build, opts...), nil
}

// PrintTables prints the characterization's table at every level.
func PrintTables(ch *core.Characterization) {
	for _, level := range core.Levels() {
		fmt.Println(core.FormatPerfTable(ch.Table(level)))
	}
}

// Run runs app through the session and prints the report: profile and
// evaluation, the span report with -spans, the evaluation under the
// fault scenario compared with the healthy one, the utilization
// reports with -utilization, the telemetry file with -metrics and the
// store summary with -store. Under -pfs app runs with its NFS files on
// the parallel FS, the filesystem the session characterizes.
func (m *Method) Run(sess *core.Session, app workload.App) error {
	if m.UsePFS() {
		var err error
		if app, err = synth.Remount(app, "pfs"); err != nil {
			return err
		}
	}
	rep, err := sess.Run(app)
	if err != nil {
		return err
	}
	ev := rep.Evaluation
	fmt.Println(core.FormatProfile(ev.AppName(), ev.Profile()))
	fmt.Println(core.FormatEvaluation(ev))
	if *m.spans {
		fmt.Println(core.FormatPathReport(ev.PathReport()))
	}
	if rep.Degraded != nil {
		fmt.Printf("== Phase 3 (degraded): evaluation under fault scenario %q ==\n", rep.Scenario)
		fmt.Println(core.FormatEvaluation(rep.Degraded))
		if *m.spans {
			fmt.Println(core.FormatPathReport(rep.Degraded.PathReport()))
		}
		fmt.Println("Healthy vs degraded:")
		fmt.Println(core.FormatUsedComparison(ev.Used(), rep.Degraded.Used()))
	}
	if *m.utilization {
		fmt.Println(rep.Utilization)
		if rep.Degraded != nil {
			fmt.Println("Utilization under fault scenario:")
			fmt.Println(rep.DegradedUtilization)
		}
	}
	if *m.metrics != "" {
		if err := WriteMetrics(*m.metrics, ev.TelemetryReport(), m.stored.Store); err != nil {
			return err
		}
		fmt.Printf("(telemetry report written to %s)\n", *m.metrics)
	}
	if m.stored.Store != nil {
		fmt.Println(StoreSummary(m.stored.Store))
	}
	return nil
}
