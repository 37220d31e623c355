// Command iosweep fans the paper's three-phase methodology out over a
// grid of candidate I/O configurations and ranks the results: every
// (platform × device organization × I/O-node count) cell is
// characterized once, every workload is evaluated on every cell on a
// bounded worker pool, and the ranked report recommends the best
// configuration per application.
//
// Usage:
//
//	iosweep [-platforms aohyper,clusterA] [-orgs jbod,raid1,raid5]
//	        [-pfs 0,2,4] [-apps btio-full,btio-simple,madbench-shared,madbench-unique,flashio]
//	        [-procs N] [-workers N] [-rank io-time|used-pct|throughput]
//	        [-fault none,disk-fail,...] [-seed N] [-quick] [-json FILE]
//	        [-store DIR]
//
// -fault adds a fault-scenario axis: each named scenario adds a
// degraded variant of every cell ("none" is the healthy run), so the
// ranking shows how each configuration holds up under failure.
// -store persists characterizations across runs: a warm re-run of
// the same grid performs zero characterizations and produces a
// byte-identical report.
package main

import (
	"flag"
	"fmt"
	"strconv"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/catalog"
	"ioeval/internal/fault"
	"ioeval/internal/sweep"
	"ioeval/internal/workload"
)

func main() {
	platforms := cliutil.EnumListFlag(flag.CommandLine, "platforms", "aohyper", "comma-separated platforms: aohyper, clusterA", catalog.Platforms...)
	orgs := cliutil.EnumListFlag(flag.CommandLine, "orgs", "jbod,raid1,raid5", "comma-separated device organizations", catalog.Orgs...)
	pfs := flag.String("pfs", "0", "comma-separated I/O-node counts (0 = NFS path, n > 0 = parallel FS over n I/O nodes)")
	apps := cliutil.EnumListFlag(flag.CommandLine, "apps", "btio-full,btio-simple", "comma-separated workloads: btio-full, btio-simple, madbench-shared, madbench-unique, flashio", catalog.Workloads...)
	procs := flag.Int("procs", 16, "MPI processes per workload (btio needs a square)")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	rankName := cliutil.EnumFlag(flag.CommandLine, "rank", "io-time", "ranking metric: io-time, used-pct or throughput", cliutil.Ranks...)
	quick := flag.Bool("quick", false, "reduced characterization and class A BT-IO (fast demo)")
	jsonOut := flag.String("json", "", "write the ranked report to this JSON file")
	faults := cliutil.FaultListFlag(flag.CommandLine)
	seed := cliutil.SeedFlag(flag.CommandLine)
	storeDir := cliutil.StoreFlag(flag.CommandLine)
	charWorkers := cliutil.CharWorkersFlag(flag.CommandLine)
	cliutil.Parse()

	rank := cliutil.Must(sweep.ParseMetric(*rankName))
	spec := sweep.GridSpec{Char: cliutil.CharConfig(*quick, false)}
	for _, p := range cliutil.SplitList(*platforms) {
		spec.Platforms = append(spec.Platforms, cliutil.Must(catalog.Platform(p)))
	}
	for _, o := range cliutil.SplitList(*orgs) {
		spec.Orgs = append(spec.Orgs, cliutil.Must(catalog.ParseOrg(o)))
	}
	for _, s := range cliutil.SplitList(*pfs) {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			cliutil.BadValue(fmt.Errorf("bad -pfs entry %q", s))
		}
		spec.PFSIONodes = append(spec.PFSIONodes, n)
	}
	for _, a := range cliutil.SplitList(*apps) {
		app := cliutil.Valid(catalog.Workload(a, *procs, *quick))
		spec.Apps = append(spec.Apps, sweep.AppSpec{Name: a, New: func() workload.App { return app }})
	}
	for _, f := range cliutil.SplitList(*faults) {
		if f == "none" {
			spec.Scenarios = append(spec.Scenarios, fault.Plan{})
			continue
		}
		spec.Scenarios = append(spec.Scenarios, *cliutil.Must(cliutil.FaultPlan(f, *seed)))
	}

	grid := spec.Grid()
	eng := sweep.NewEngine(*workers)
	eng.SetCharWorkers(*charWorkers)
	st := cliutil.Must(cliutil.OpenStore(*storeDir))
	if st != nil {
		eng.SetStore(st)
	}
	fmt.Printf("sweeping %d configurations × %d workloads on %d workers ...\n",
		len(grid.Configs), len(spec.Apps), eng.Workers())
	rep := cliutil.Must(eng.Run(grid, rank))
	fmt.Println(rep)
	snap := eng.Snapshot()
	fmt.Printf("engine: %d characterizations (%d cache hits), %d evaluations (%d cache hits)\n",
		snap.Counters.Aux["characterizations"], snap.Counters.Aux["char_cache_hits"],
		snap.Counters.Aux["evaluations"], snap.Counters.Aux["eval_cache_hits"])
	if st != nil {
		fmt.Println(cliutil.StoreSummary(st))
	}
	if *jsonOut != "" {
		cliutil.Check(rep.WriteFile(*jsonOut))
		fmt.Printf("(report written to %s)\n", *jsonOut)
	}
}
