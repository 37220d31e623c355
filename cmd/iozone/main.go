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
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/stats"
)

func main() {
	orgName := flag.String("org", "raid5", "device organization: jbod, raid1 or raid5")
	target := flag.String("target", "local", "filesystem under test: local (I/O node) or nfs")
	file := cliutil.SizeFlag(flag.CommandLine, "file", 4096, cliutil.MiB, "file size in `MiB` (paper rule: 2x RAM)")
	minSize := cliutil.SizeFlag(flag.CommandLine, "min", 32, cliutil.KiB, "smallest block size in `KiB`")
	maxSize := cliutil.SizeFlag(flag.CommandLine, "max", 16384, cliutil.KiB, "largest block size in `KiB`")
	modesArg := flag.String("modes", "seq", "comma list of: seq, rand, stride")
	storeDir := cliutil.StoreFlag(flag.CommandLine)
	charWorkers := cliutil.CharWorkersFlag(flag.CommandLine)
	flag.Parse()

	org, err := cliutil.ParseOrg(*orgName)
	if err != nil {
		cliutil.Fatal(err)
	}
	c := cluster.Aohyper(org)

	var fsi fs.Interface = c.ServerFS
	if *target == "nfs" {
		fsi = c.Nodes[0].NFS
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
		default:
			cliutil.Fatal(fmt.Errorf("unknown mode %q", m))
		}
	}

	// An empty list would silently run the default sweep instead.
	blockSizes := bench.BlockSizes(minSize.Bytes(), maxSize.Bytes())
	if len(blockSizes) == 0 {
		cliutil.Fatal(fmt.Errorf("block sizes need 0 < -min <= -max, got -min %v -max %v", minSize, maxSize))
	}

	results, err := bench.RunIOzone(c.Eng, fsi, bench.IOzoneConfig{
		FileSize:   file.Bytes(),
		BlockSizes: blockSizes,
		Modes:      modes,
		RandomOps:  4096,
		BetweenRuns: func(p *sim.Proc) {
			m := ioreq.Meta(p)
			c.IOCache.DropCaches(m)
			c.Nodes[0].NFS.DropCaches(m)
		},
	})
	if err != nil {
		cliutil.Fatal(err)
	}

	fmt.Printf("IOzone-like sweep — %s, %s target, file %d MiB\n\n", org, *target, file.Bytes()>>20)
	var tb stats.Table
	tb.AddRow("mode", "block", "rate", "IOPS", "latency")
	for _, r := range results {
		tb.AddRow(r.Mode.String(), stats.IBytes(r.BlockSize), stats.MBs(r.Rate),
			fmt.Sprintf("%.0f", r.IOPS), r.Latency.String())
	}
	fmt.Println(tb.String())

	st, err := cliutil.OpenStore(*storeDir)
	if err != nil {
		cliutil.Fatal(err)
	}
	if st != nil {
		build, err := cliutil.ClusterBuilder("aohyper", org, 0)
		if err != nil {
			cliutil.Fatal(err)
		}
		sess := core.NewSession(build,
			core.WithStore(st),
			core.WithCharacterizeWorkers(*charWorkers),
			core.WithCharacterizeConfig(cliutil.CharConfig(true, false)))
		ch, err := sess.Characterization()
		if err != nil {
			cliutil.Fatal(err)
		}
		level := core.LevelLocalFS
		if *target == "nfs" {
			level = core.LevelNFS
		}
		fmt.Printf("Stored %s baseline:\n", level)
		fmt.Println(core.FormatPerfTable(ch.Table(level)))
		fmt.Println(cliutil.StoreSummary(st))
	}
}
