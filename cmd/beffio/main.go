// Command beffio runs the b_eff_io-like effective-bandwidth benchmark
// (the paper's second option for library-level characterization):
// three access-pattern families across transfer sizes, reduced to one
// effective bandwidth number.
//
// Usage:
//
//	beffio [-platform aohyper|clusterA] [-org jbod|raid1|raid5]
//	       [-procs 8] [-bytes 64] [-store DIR]
//
// With -store, the cluster's characterized library-level table (from
// the content-addressed store, computed on a first miss) is printed
// alongside the fresh run.
package main

import (
	"flag"
	"fmt"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/bench"
	"ioeval/internal/catalog"
	"ioeval/internal/core"
	"ioeval/internal/stats"
)

func main() {
	platform := cliutil.EnumFlag(flag.CommandLine, "platform", "aohyper", "cluster: aohyper or clusterA", catalog.Platforms...)
	orgName := cliutil.EnumFlag(flag.CommandLine, "org", "raid5", "Aohyper device organization", catalog.Orgs...)
	procs := flag.Int("procs", 8, "processes")
	perRank := cliutil.SizeFlag(flag.CommandLine, "bytes", 64, cliutil.MiB, "`MiB` per rank per measurement")
	stored := cliutil.StoredFlags(flag.CommandLine)
	cliutil.Parse()

	org := cliutil.Must(catalog.ParseOrg(*orgName))
	build := cliutil.Must(catalog.Builder(*platform, org, 0))
	c := build()

	sum := cliutil.Must(bench.RunBeffIO(c, bench.BeffIOConfig{
		Procs:        *procs,
		BytesPerRank: perRank.Bytes(),
	}))

	fmt.Printf("b_eff_io-like run — %s, %d procs, %d MiB/rank per pattern\n\n",
		c.Cfg.Name, *procs, perRank.Bytes()>>20)
	var tb stats.Table
	tb.AddRow("pattern", "transfer", "write", "read")
	for _, r := range sum.Results {
		tb.AddRow(r.Pattern.String(), stats.IBytes(r.TransferSize),
			stats.MBs(r.WriteRate), stats.MBs(r.ReadRate))
	}
	fmt.Println(tb.String())
	fmt.Printf("b_eff_io = %s\n", stats.MBs(sum.BeffIO))

	cliutil.Check(stored.Baseline(build, "\nStored library-level baseline:", core.LevelIOLib))
}
