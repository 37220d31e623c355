// Command madbench runs the MADbench2 benchmark on a simulated
// cluster and reports per-function times and transfer rates (S_w,
// W_w, W_r, C_r), like the real benchmark does.
//
// Usage:
//
//	madbench [-platform aohyper|clusterA] [-org jbod|raid1|raid5]
//	         [-procs 16] [-kpix 18] [-bins 8] [-filetype unique|shared]
//	         [-timeline] [-store DIR]
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
	"ioeval/internal/stats"
	"ioeval/internal/trace"
	"ioeval/internal/workload/madbench"
)

func main() {
	platform := cliutil.EnumFlag(flag.CommandLine, "platform", "aohyper", "cluster: aohyper or clusterA", catalog.Platforms...)
	orgName := cliutil.EnumFlag(flag.CommandLine, "org", "raid5", "Aohyper device organization", catalog.Orgs...)
	procs := flag.Int("procs", 16, "MPI processes (square)")
	kpix := flag.Int("kpix", madbench.DefaultKPix, "KPIX (pixels = KPIX x 1024)")
	bins := flag.Int("bins", madbench.DefaultBins, "component matrices")
	filetype := cliutil.EnumFlag(flag.CommandLine, "filetype", "shared", "unique or shared", cliutil.FileTypes...)
	timeline := flag.Bool("timeline", false, "render the trace timeline")
	stored := cliutil.StoredFlags(flag.CommandLine)
	cliutil.Parse()

	ft := madbench.Shared
	if *filetype == "unique" {
		ft = madbench.Unique
	}
	app := cliutil.Valid(catalog.MADbench(*procs, *kpix, *bins, ft))

	org := cliutil.Must(catalog.ParseOrg(*orgName))
	build := cliutil.Must(catalog.Builder(*platform, org, 0))
	c := build()
	tr := trace.New()
	fmt.Printf("running %s on %s (slice %s per op) ...\n\n",
		app.Name(), c.Cfg.Name, stats.IBytes(app.SliceBytes()))
	res := cliutil.Must(app.Run(c, tr))

	var tb stats.Table
	tb.AddRow("metric", "value")
	tb.AddRow("execution time", res.ExecTime.String())
	tb.AddRow("I/O time", res.IOTime.String())
	for _, k := range []string{"S_w", "W_r", "W_w", "C_r"} {
		tb.AddRow(k+" rate", stats.MBs(res.PhaseRates[k]))
	}
	fmt.Println(tb.String())

	if *timeline {
		fmt.Println(trace.Timeline{Width: 110}.Render(tr.Events()))
	}

	cliutil.Check(stored.Evaluate(build, app))
}
