// Command btio runs the NAS BT-IO benchmark on a simulated cluster
// and reports the paper's measurements: execution time, I/O time,
// throughput, and the traced application characterization.
//
// Usage:
//
//	btio [-platform aohyper|clusterA] [-org jbod|raid1|raid5]
//	     [-class A|B|C] [-procs 16] [-subtype full|simple] [-timeline]
//	     [-metrics out.json] [-store DIR]
//
// With -store, the run is additionally evaluated against the cluster's
// characterization (looked up in — or computed into — the
// content-addressed store) and the used-percentage table is printed.
package main

import (
	"flag"
	"fmt"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/catalog"
	"ioeval/internal/core"
	"ioeval/internal/stats"
	"ioeval/internal/trace"
	"ioeval/internal/workload/btio"
)

func main() {
	platform := cliutil.EnumFlag(flag.CommandLine, "platform", "aohyper", "cluster: aohyper or clusterA", catalog.Platforms...)
	orgName := cliutil.EnumFlag(flag.CommandLine, "org", "raid5", "Aohyper device organization", catalog.Orgs...)
	className := cliutil.EnumFlag(flag.CommandLine, "class", "C", "NPB class: A, B or C", cliutil.Classes...)
	procs := flag.Int("procs", 16, "MPI processes (square)")
	subtype := cliutil.EnumFlag(flag.CommandLine, "subtype", "full", "I/O subtype: full or simple", cliutil.Subtypes...)
	timeline := flag.Bool("timeline", false, "render the Jumpshot-style trace timeline")
	metrics := cliutil.MetricsFlag(flag.CommandLine)
	stored := cliutil.StoredFlags(flag.CommandLine)
	cliutil.Parse()

	class := btio.ClassC
	switch *className {
	case "A":
		class = btio.ClassA
	case "B":
		class = btio.ClassB
	}
	sub := btio.Full
	if *subtype == "simple" {
		sub = btio.Simple
	}
	app := cliutil.Valid(catalog.BTIO(class, *procs, sub))

	org := cliutil.Must(catalog.ParseOrg(*orgName))
	build := cliutil.Must(catalog.Builder(*platform, org, 0))
	c := build()
	tr := trace.New()
	ps := trace.NewPhaseSnapshotter(c.Eng, c.Telemetry, tr, 0)
	fmt.Printf("running %s on %s ...\n\n", app.Name(), c.Cfg.Name)
	res := cliutil.Must(app.Run(c, ps))

	var tb stats.Table
	tb.AddRow("metric", "value")
	tb.AddRow("execution time", res.ExecTime.String())
	tb.AddRow("I/O time", res.IOTime.String())
	tb.AddRow("write time", res.WriteTime.String())
	tb.AddRow("read time", res.ReadTime.String())
	tb.AddRow("throughput", stats.MBs(res.Throughput()))
	fmt.Println(tb.String())

	fmt.Println(core.FormatProfile(app.Name(), tr.Profile()))

	fmt.Println("Signature (rank 0 phases and weights):")
	for _, s := range tr.Signature(0) {
		fmt.Printf("  %-5s %-10s ops=%-6d bytes=%s weight=%d\n",
			s.Phase.Kind, s.Phase.Mode, s.Phase.Ops, stats.IBytes(s.Phase.Bytes), s.Weight)
	}

	if *timeline {
		fmt.Println()
		fmt.Println(trace.Timeline{Width: 110}.Render(tr.Events()))
	}

	cliutil.Check(stored.Evaluate(build, app))

	if *metrics != "" {
		rep := c.TelemetryReport()
		rep.App = app.Name()
		rep.Phases = ps.Finish()
		cliutil.Check(cliutil.WriteMetrics(*metrics, rep, stored.Store))
		fmt.Printf("(telemetry report written to %s)\n", *metrics)
	}
}
