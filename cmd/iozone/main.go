// Command iozone runs the IOzone-like filesystem characterization
// sweep against a simulated cluster, at either the I/O node's local
// filesystem or a compute node's NFS mount.
//
// Usage:
//
//	iozone [-org jbod|raid1|raid5] [-target local|nfs]
//	       [-file 4096] [-min 32] [-max 16384] [-modes seq,rand,stride]
//	       [-store DIR]
//
// With -store, the cluster's characterized table for the targeted
// level (from the content-addressed store, computed on a first miss)
// is printed alongside the fresh sweep.
package main

import (
	"flag"
	"fmt"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/bench"
	"ioeval/internal/catalog"
	"ioeval/internal/core"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/stats"
)

func main() {
	orgName := cliutil.EnumFlag(flag.CommandLine, "org", "raid5", "device organization: jbod, raid1 or raid5", catalog.Orgs...)
	target := cliutil.EnumFlag(flag.CommandLine, "target", "local", "filesystem under test: local (I/O node) or nfs", cliutil.Targets...)
	file := cliutil.SizeFlag(flag.CommandLine, "file", 4096, cliutil.MiB, "file size in `MiB` (paper rule: 2x RAM)")
	minSize := cliutil.SizeFlag(flag.CommandLine, "min", 32, cliutil.KiB, "smallest block size in `KiB`")
	maxSize := cliutil.SizeFlag(flag.CommandLine, "max", 16384, cliutil.KiB, "largest block size in `KiB`")
	modesArg := cliutil.EnumListFlag(flag.CommandLine, "modes", "seq", "comma list of: seq, rand, stride", cliutil.Modes...)
	stored := cliutil.StoredFlags(flag.CommandLine)
	cliutil.Parse()

	org := cliutil.Must(catalog.ParseOrg(*orgName))
	build := cliutil.Must(catalog.Builder("aohyper", org, 0))
	c := build()

	var fsi fs.Interface = c.ServerFS
	level := core.LevelLocalFS
	if *target == "nfs" {
		fsi, level = c.Nodes[0].NFS, core.LevelNFS
	}

	var modes []bench.Mode
	for _, m := range cliutil.SplitList(*modesArg) {
		switch m {
		case "seq":
			modes = append(modes, bench.SeqWrite, bench.SeqRead)
		case "rand":
			modes = append(modes, bench.RandWrite, bench.RandRead)
		case "stride":
			modes = append(modes, bench.StrideWrite, bench.StrideRead)
		}
	}

	// An empty list would silently run the default sweep instead.
	blockSizes := bench.BlockSizes(minSize.Bytes(), maxSize.Bytes())
	if len(blockSizes) == 0 {
		cliutil.Fatal(fmt.Errorf("block sizes need 0 < -min <= -max, got -min %v -max %v", minSize, maxSize))
	}

	results := cliutil.Must(bench.RunIOzone(c.Eng, fsi, bench.IOzoneConfig{
		FileSize:   file.Bytes(),
		BlockSizes: blockSizes,
		Modes:      modes,
		RandomOps:  4096,
		BetweenRuns: func(p *sim.Proc) {
			m := ioreq.Meta(p)
			c.IOCache.DropCaches(m)
			c.Nodes[0].NFS.DropCaches(m)
		},
	}))

	fmt.Printf("IOzone-like sweep — %s, %s target, file %d MiB\n\n", org, *target, file.Bytes()>>20)
	var tb stats.Table
	tb.AddRow("mode", "block", "rate", "IOPS", "latency")
	for _, r := range results {
		tb.AddRow(r.Mode.String(), stats.IBytes(r.BlockSize), stats.MBs(r.Rate),
			fmt.Sprintf("%.0f", r.IOPS), r.Latency.String())
	}
	fmt.Println(tb.String())

	cliutil.Check(stored.Baseline(build, fmt.Sprintf("Stored %s baseline:", level), level))
}
