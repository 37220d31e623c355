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
	"ioeval/internal/core"
	"ioeval/internal/stats"
)

func main() {
	platform := flag.String("platform", "aohyper", "cluster: aohyper or clusterA")
	orgName := flag.String("org", "raid5", "Aohyper device organization")
	procs := flag.Int("procs", 8, "processes")
	perRank := cliutil.SizeFlag(flag.CommandLine, "bytes", 64, cliutil.MiB, "`MiB` per rank per measurement")
	storeDir := cliutil.StoreFlag(flag.CommandLine)
	charWorkers := cliutil.CharWorkersFlag(flag.CommandLine)
	flag.Parse()

	org, err := cliutil.ParseOrg(*orgName)
	if err != nil {
		cliutil.Fatal(err)
	}
	build, err := cliutil.ClusterBuilder(*platform, org, 0)
	if err != nil {
		cliutil.Fatal(err)
	}
	c := build()

	sum, err := bench.RunBeffIO(c, bench.BeffIOConfig{
		Procs:        *procs,
		BytesPerRank: perRank.Bytes(),
	})
	if err != nil {
		cliutil.Fatal(err)
	}

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

	st, err := cliutil.OpenStore(*storeDir)
	if err != nil {
		cliutil.Fatal(err)
	}
	if st != nil {
		sess := core.NewSession(build,
			core.WithStore(st),
			core.WithCharacterizeWorkers(*charWorkers),
			core.WithCharacterizeConfig(cliutil.CharConfig(true, false)))
		ch, err := sess.Characterization()
		if err != nil {
			cliutil.Fatal(err)
		}
		fmt.Println()
		fmt.Println("Stored library-level baseline:")
		fmt.Println(core.FormatPerfTable(ch.Table(core.LevelIOLib)))
		fmt.Println(cliutil.StoreSummary(st))
	}
}
