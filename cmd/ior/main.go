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
	"ioeval/internal/catalog"
	"ioeval/internal/core"
	"ioeval/internal/stats"
)

func main() {
	platform := cliutil.EnumFlag(flag.CommandLine, "platform", "aohyper", "cluster: aohyper or clusterA", catalog.Platforms...)
	orgName := cliutil.EnumFlag(flag.CommandLine, "org", "raid5", "Aohyper device organization", catalog.Orgs...)
	procs := flag.Int("procs", 8, "processes")
	file := cliutil.SizeFlag(flag.CommandLine, "file", 32768, cliutil.MiB, "total file size in `MiB` (paper: 32 GiB)")
	xfer := cliutil.SizeFlag(flag.CommandLine, "xfer", 256, cliutil.KiB, "transfer size in `KiB` (must divide every block size)")
	collective := flag.Bool("collective", false, "use collective (two-phase) I/O")
	stored := cliutil.StoredFlags(flag.CommandLine)
	cliutil.Parse()

	org := cliutil.Must(catalog.ParseOrg(*orgName))
	build := cliutil.Must(catalog.Builder(*platform, org, 0))
	c := build()

	results := cliutil.Must(bench.RunIOR(c, bench.IORConfig{
		Procs:        *procs,
		FileSize:     file.Bytes(),
		TransferSize: xfer.Bytes(),
		Collective:   *collective,
	}))

	fmt.Printf("IOR-like sweep — %s, %d procs, %d MiB file, %d KiB transfers, collective=%v\n\n",
		c.Cfg.Name, *procs, file.Bytes()>>20, xfer.Bytes()>>10, *collective)
	var tb stats.Table
	tb.AddRow("block", "write", "read")
	for _, r := range results {
		tb.AddRow(stats.IBytes(r.BlockSize), stats.MBs(r.WriteRate), stats.MBs(r.ReadRate))
	}
	fmt.Println(tb.String())

	cliutil.Check(stored.Baseline(build, "Stored library-level baseline:", core.LevelIOLib))
}
