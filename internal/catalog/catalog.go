// Package catalog is the one catalogue of the paper's platforms and
// workloads that the commands, the experiments and the sweep grid
// build through, so each default and platform rule is written once.
// Every workload is built on NFS: the filesystem is a property of the
// run, which moves the files with synth.Remount.
package catalog

import (
	"fmt"
	"strings"

	"ioeval/internal/cluster"
	"ioeval/internal/sim"
	"ioeval/internal/workload"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/flashio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

// Names in the catalogue, in help-text order. The first four
// workloads are the spec generators iosynth -emit writes.
var (
	Platforms = []string{"aohyper", "clusterA"}
	Orgs      = []string{"jbod", "raid1", "raid5"}
	Workloads = []string{"btio-full", "btio-simple", "madbench-shared", "madbench-unique", "flashio"}
)

// ParseOrg parses a device-organization name: an Organization's
// String in lower case.
func ParseOrg(s string) (cluster.Organization, error) {
	for _, org := range []cluster.Organization{cluster.JBOD, cluster.RAID1, cluster.RAID5} {
		if strings.ToLower(org.String()) == s {
			return org, nil
		}
	}
	return 0, fmt.Errorf("unknown organization %q (want %s)", s, strings.Join(Orgs, ", "))
}

// Platform returns the named platform's base configuration.
func Platform(name string) (cluster.Config, error) {
	switch name {
	case "aohyper":
		return cluster.Aohyper(cluster.JBOD).Cfg, nil
	case "clusterA":
		return cluster.ClusterA().Cfg, nil
	}
	return cluster.Config{}, fmt.Errorf("unknown platform %q (want %s)", name, strings.Join(Platforms, ", "))
}

// Org returns the device organization the named platform runs when
// asked for org. Cluster A has a single configuration, RAID 5; every
// other platform takes org as asked.
func Org(platform string, org cluster.Organization) cluster.Organization {
	if platform == "clusterA" {
		return cluster.RAID5
	}
	return org
}

// Builder returns a fresh-cluster builder of the named platform under
// org, as Org resolves it. pfsNodes > 0 also deploys the parallel FS
// over that many I/O nodes.
func Builder(platform string, org cluster.Organization, pfsNodes int) (func() *cluster.Cluster, error) {
	cfg, err := Platform(platform)
	if err != nil {
		return nil, err
	}
	cfg.Org = Org(platform, org)
	cfg.PFSIONodes = pfsNodes
	return func() *cluster.Cluster { return cluster.New(cfg) }, nil
}

// BTIO returns NAS BT-IO of class for procs ranks at ComputeScale 1.
func BTIO(class btio.Class, procs int, st btio.Subtype) (*btio.App, error) {
	return btio.Build(btio.Config{Class: class, Procs: procs, Subtype: st, ComputeScale: 1})
}

// MADbench returns MADbench2 for procs ranks at kpix×1024 pixels and
// bins component matrices, with 1 s of busy work per bin.
func MADbench(procs, kpix, bins int, ft madbench.FileType) (*madbench.App, error) {
	return madbench.Build(madbench.Config{Procs: procs, KPix: kpix, Bins: bins, FileType: ft, BusyWork: sim.Second})
}

// App is a catalogue workload: a workload.App that is a synth spec.
type App interface {
	workload.App
	Spec() *synth.Spec
}

// Workload builds the named workload for procs ranks, at the paper's
// size (BT-IO class C, MADbench2 at 18 KPIX and 8 bins, FLASH-IO with
// 5 s of compute per dump) or, when quick, the reduced one (class A,
// 4 KPIX). An unknown name, or a process count the workload cannot
// run, is an error.
func Workload(name string, procs int, quick bool) (App, error) {
	class, kpix := btio.ClassC, madbench.DefaultKPix
	if quick {
		class, kpix = btio.ClassA, 4
	}
	switch name {
	case "btio-full":
		return app(BTIO(class, procs, btio.Full))
	case "btio-simple":
		return app(BTIO(class, procs, btio.Simple))
	case "madbench-shared":
		return app(MADbench(procs, kpix, madbench.DefaultBins, madbench.Shared))
	case "madbench-unique":
		return app(MADbench(procs, kpix, madbench.DefaultBins, madbench.Unique))
	case "flashio":
		return app(flashio.Build(flashio.Config{Procs: procs, Compute: 5 * sim.Second}))
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(Workloads, ", "))
}

// app returns a as an App, or a nil App on an error.
func app[A App](a A, err error) (App, error) {
	if err != nil {
		return nil, err
	}
	return a, nil
}
