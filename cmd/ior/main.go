// Command ior runs the IOR-like MPI-IO library-level sweep against a
// simulated cluster's shared storage.
//
// Usage:
//
//	ior [-platform aohyper|clusterA] [-org jbod|raid1|raid5]
//	    [-procs 8] [-file 32768] [-xfer 256] [-collective] [-store DIR]
//
// With -store, the cluster's characterized library-level table (from
// the content-addressed store, computed on a first miss) is printed
// alongside the fresh sweep, so one-off runs can be compared against
// the stored baseline.
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
	file := cliutil.SizeFlag(flag.CommandLine, "file", 32768, cliutil.MiB, "total file size in `MiB` (paper: 32 GiB)")
	xfer := cliutil.SizeFlag(flag.CommandLine, "xfer", 256, cliutil.KiB, "transfer size in `KiB` (must divide every block size)")
	collective := flag.Bool("collective", false, "use collective (two-phase) I/O")
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

	results, err := bench.RunIOR(c, bench.IORConfig{
		Procs:        *procs,
		FileSize:     file.Bytes(),
		TransferSize: xfer.Bytes(),
		Collective:   *collective,
	})
	if err != nil {
		cliutil.Fatal(err)
	}

	fmt.Printf("IOR-like sweep — %s, %d procs, %d MiB file, %d KiB transfers, collective=%v\n\n",
		c.Cfg.Name, *procs, file.Bytes()>>20, xfer.Bytes()>>10, *collective)
	var tb stats.Table
	tb.AddRow("block", "write", "read")
	for _, r := range results {
		tb.AddRow(stats.IBytes(r.BlockSize), stats.MBs(r.WriteRate), stats.MBs(r.ReadRate))
	}
	fmt.Println(tb.String())

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
		fmt.Println("Stored library-level baseline:")
		fmt.Println(core.FormatPerfTable(ch.Table(core.LevelIOLib)))
		fmt.Println(cliutil.StoreSummary(st))
	}
}
