// Command iosynth runs declarative synthetic workloads — phase-graph
// specs compiled by internal/workload/synth — through the paper's
// full methodology: characterize the cluster, evaluate the spec under
// the tracer, and report the used-percentage tables, optionally side
// by side with a fault scenario.
//
// Run a spec:
//
//	iosynth -spec workload.json [-platform aohyper|clusterA]
//	        [-org jbod|raid1|raid5] [-pfs N] [-quick]
//	        [-fault scenario] [-seed N] [-spans] [-metrics out.json]
//	        [-store DIR] [-utilization]
//
// Emit the spec an application package generates and runs (BT-IO and
// MADbench2 are spec generators) for editing and re-running:
//
//	iosynth -emit btio-full|btio-simple|madbench-shared|madbench-unique
//	        [-procs N] [-quick] [-out workload.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/core"
	"ioeval/internal/sim"
	"ioeval/internal/stats"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

func main() {
	specPath := flag.String("spec", "", "synthetic-workload spec (JSON) to evaluate")
	emit := flag.String("emit", "", "write a generator's spec instead of running: btio-full, btio-simple, madbench-shared or madbench-unique")
	out := flag.String("out", "", "output file for -emit (default stdout)")
	platform := flag.String("platform", "aohyper", "cluster to simulate: aohyper or clusterA")
	orgName := flag.String("org", "raid5", "Aohyper device organization: jbod, raid1 or raid5")
	procs := flag.Int("procs", 16, "MPI processes for -emit generators")
	pfsNodes := flag.Int("pfs", 0, "deploy a PVFS-like parallel FS over N I/O nodes and run against it")
	quick := flag.Bool("quick", false, "reduced characterization and generator problem sizes")
	utilization := flag.Bool("utilization", false, "print the cluster utilization report after evaluation")
	faultName := cliutil.FaultFlag(flag.CommandLine)
	seed := cliutil.SeedFlag(flag.CommandLine)
	spans := cliutil.SpansFlag(flag.CommandLine)
	metrics := cliutil.MetricsFlag(flag.CommandLine)
	storeDir := cliutil.StoreFlag(flag.CommandLine)
	charWorkers := cliutil.CharWorkersFlag(flag.CommandLine)
	flag.Parse()

	if *emit != "" {
		if err := emitSpec(*emit, *procs, *quick, *out); err != nil {
			cliutil.Fatal(err)
		}
		return
	}
	if *specPath == "" {
		cliutil.FatalUsage()
	}

	spec, err := synth.LoadSpec(*specPath)
	if err != nil {
		cliutil.Fatal(err)
	}
	app, err := synth.Compile(spec)
	if err != nil {
		cliutil.Fatal(err)
	}

	org, err := cliutil.ParseOrg(*orgName)
	if err != nil {
		cliutil.Fatal(err)
	}
	build, err := cliutil.ClusterBuilder(*platform, org, *pfsNodes)
	if err != nil {
		cliutil.Fatal(err)
	}

	fmt.Println("== Phase 1: characterization (system side) ==")
	opts := []core.SessionOption{
		core.WithCharacterizeConfig(cliutil.CharConfig(*quick, *pfsNodes > 0)),
		core.WithCharacterizeWorkers(*charWorkers),
	}
	plan, err := cliutil.FaultPlan(*faultName, *seed)
	if err != nil {
		cliutil.Fatal(err)
	}
	if plan != nil {
		opts = append(opts, core.WithFaultPlan(*plan))
	}
	st, err := cliutil.OpenStore(*storeDir)
	if err != nil {
		cliutil.Fatal(err)
	}
	if st != nil {
		opts = append(opts, core.WithStore(st))
	}
	sess := core.NewSession(build, opts...)
	ch, err := sess.Characterization()
	if err != nil {
		cliutil.Fatal(err)
	}
	for _, level := range core.Levels() {
		fmt.Println(core.FormatPerfTable(ch.Table(level)))
	}

	declR, declW := spec.DeclaredBytes()
	fmt.Printf("== Phase 3: evaluating spec %s (%d ranks, %d phases, %s read / %s written declared) ==\n\n",
		app.Name(), spec.Procs, len(spec.Phases), stats.IBytes(declR), stats.IBytes(declW))
	rep, err := sess.Run(app)
	if err != nil {
		cliutil.Fatal(err)
	}
	ev := rep.Evaluation
	fmt.Println(core.FormatProfile(ev.AppName(), ev.Profile()))
	fmt.Println(core.FormatEvaluation(ev))
	if *spans {
		fmt.Println(core.FormatPathReport(ev.PathReport()))
	}
	if rep.Degraded != nil {
		fmt.Printf("== Phase 3 (degraded): evaluation under fault scenario %q ==\n", rep.Scenario)
		fmt.Println(core.FormatEvaluation(rep.Degraded))
		if *spans {
			fmt.Println(core.FormatPathReport(rep.Degraded.PathReport()))
		}
		fmt.Println("Healthy vs degraded:")
		fmt.Println(core.FormatUsedComparison(ev.Used(), rep.Degraded.Used()))
	}
	if *utilization {
		fmt.Println(rep.Utilization)
		if rep.Degraded != nil {
			fmt.Println("Utilization under fault scenario:")
			fmt.Println(rep.DegradedUtilization)
		}
	}
	if *metrics != "" {
		if err := cliutil.WriteMetrics(*metrics, ev.TelemetryReport(), st); err != nil {
			cliutil.Fatal(err)
		}
		fmt.Printf("(telemetry report written to %s)\n", *metrics)
	}
	if st != nil {
		fmt.Println(cliutil.StoreSummary(st))
	}
}

// emitSpec writes the spec one of the application generators runs.
func emitSpec(name string, procs int, quick bool, out string) error {
	var spec *synth.Spec
	switch name {
	case "btio-full", "btio-simple":
		class := btio.ClassC
		if quick {
			class = btio.ClassA
		}
		st := btio.Full
		if name == "btio-simple" {
			st = btio.Simple
		}
		spec = btio.New(btio.Config{Class: class, Procs: procs, Subtype: st, ComputeScale: 1}).Spec()
	case "madbench-shared", "madbench-unique":
		ft := madbench.Shared
		if name == "madbench-unique" {
			ft = madbench.Unique
		}
		kpix := 18
		if quick {
			kpix = 4
		}
		spec = madbench.New(madbench.Config{Procs: procs, KPix: kpix, FileType: ft, BusyWork: sim.Second}).Spec()
	default:
		return fmt.Errorf("unknown generator %q (want btio-full, btio-simple, madbench-shared or madbench-unique)", name)
	}
	if out == "" {
		return spec.WriteJSON(os.Stdout)
	}
	if err := cliutil.WriteFileFn(out, spec.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s spec to %s\n", name, out)
	return nil
}
