package catalog

import (
	"reflect"
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/sim"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/flashio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

func TestParseOrg(t *testing.T) {
	for name, want := range map[string]cluster.Organization{
		"jbod": cluster.JBOD, "raid1": cluster.RAID1, "raid5": cluster.RAID5,
	} {
		got, err := ParseOrg(name)
		if err != nil || got != want {
			t.Errorf("ParseOrg(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseOrg("raid6"); err == nil {
		t.Error("ParseOrg accepted an unknown organization")
	}
}

func TestPlatformConfig(t *testing.T) {
	for name, want := range map[string]cluster.Config{
		"aohyper": cluster.Aohyper(cluster.JBOD).Cfg, "clusterA": cluster.ClusterA().Cfg,
	} {
		cfg, err := Platform(name)
		if err != nil {
			t.Fatalf("Platform(%q): %v", name, err)
		}
		if cfg != want {
			t.Errorf("Platform(%q) = %+v, want the config the cluster package builds", name, cfg)
		}
	}
	if _, err := Platform("beowulf"); err == nil {
		t.Error("Platform accepted an unknown platform")
	}
}

// TestPlatformOrgs pins the one platform rule: Cluster A is always
// RAID 5, Aohyper and any other platform take each organization, and
// Builder builds what Org resolves.
func TestPlatformOrgs(t *testing.T) {
	for _, org := range []cluster.Organization{cluster.JBOD, cluster.RAID1, cluster.RAID5} {
		if got := Org("aohyper", org); got != org {
			t.Errorf("Org(aohyper, %v) = %v", org, got)
		}
		if got := Org("golden", org); got != org {
			t.Errorf("Org(golden, %v) = %v", org, got)
		}
		if got := Org("clusterA", org); got != cluster.RAID5 {
			t.Errorf("Org(clusterA, %v) = %v, want RAID5", org, got)
		}
	}

	build, err := Builder("aohyper", cluster.RAID1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c := build(); c.Cfg != cluster.Aohyper(cluster.RAID1).Cfg {
		t.Errorf("aohyper RAID1 builder: %+v", c.Cfg)
	}
	if build() == build() {
		t.Error("builder returned the same cluster twice (must be fresh per call)")
	}
	build, err = Builder("clusterA", cluster.JBOD, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c := build(); c.Cfg.Org != cluster.RAID5 || c.Cfg.PFSIONodes != 2 {
		t.Errorf("clusterA JBOD pfs-2 builder: org %v, pfs %d", c.Cfg.Org, c.Cfg.PFSIONodes)
	}
	if _, err := Builder("beowulf", cluster.JBOD, 0); err == nil {
		t.Error("Builder accepted an unknown platform")
	}
}

// TestWorkloadCatalogue pins the catalogue's defaults: each name, in
// quick and full sizes, builds the spec of the package configuration
// it stands for, with its files on NFS.
func TestWorkloadCatalogue(t *testing.T) {
	for _, quick := range []bool{false, true} {
		class, kpix := btio.ClassC, 18
		if quick {
			class, kpix = btio.ClassA, 4
		}
		bt := func(st btio.Subtype) *synth.App {
			return btio.New(btio.Config{Class: class, Procs: 4, Subtype: st, ComputeScale: 1}).App
		}
		mad := func(ft madbench.FileType) *synth.App {
			return madbench.New(madbench.Config{Procs: 4, KPix: kpix, Bins: 8, FileType: ft, BusyWork: sim.Second}).App
		}
		want := map[string]*synth.App{
			"btio-full":       bt(btio.Full),
			"btio-simple":     bt(btio.Simple),
			"madbench-shared": mad(madbench.Shared),
			"madbench-unique": mad(madbench.Unique),
			"flashio":         flashio.New(flashio.Config{Procs: 4, Compute: 5 * sim.Second}).App,
		}
		if len(want) != len(Workloads) {
			t.Fatalf("catalogue lists %d workloads, test pins %d", len(Workloads), len(want))
		}
		for _, name := range Workloads {
			got, err := Workload(name, 4, quick)
			if err != nil {
				t.Fatalf("Workload(%q): %v", name, err)
			}
			if !reflect.DeepEqual(got.Spec(), want[name].Spec()) {
				t.Errorf("Workload(%q, quick %v) builds another spec", name, quick)
			}
			for _, f := range got.Spec().Files {
				if f.Mount != "" && f.Mount != "nfs" {
					t.Errorf("Workload(%q): file %q on mount %q, want NFS", name, f.Name, f.Mount)
				}
			}
		}
	}
	if _, err := Workload("btio", 4, true); err == nil || !strings.Contains(err.Error(), strings.Join(Workloads, ", ")) {
		t.Errorf("unknown workload: err = %v, want one naming the catalogue", err)
	}
}

// TestWorkloadProcs: a process count a workload cannot run is an
// error from the catalogue, never a panic, and its text is the
// workload package's one rule.
func TestWorkloadProcs(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		want  string // error text; "" means valid
	}{
		{"btio-full", 4, ""},
		{"btio-full", 3, "btio: 3 processes is not a square"},
		{"btio-simple", 0, "btio: 0 processes is not a square"},
		{"btio-simple", -4, "btio: -4 processes is not a square"},
		{"madbench-shared", 9, ""},
		{"madbench-shared", 3, "madbench: 3 processes is not a square"},
		{"madbench-unique", 0, "madbench: 0 processes is not a square"},
		{"flashio", 3, ""},
		{"flashio", 0, "flashio: need at least one process"},
		{"flashio", -1, "flashio: need at least one process"},
	}
	for _, tc := range cases {
		app, err := Workload(tc.name, tc.procs, true)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("Workload(%q, %d): %v", tc.name, tc.procs, err)
		case tc.want == "" && app.Procs() != tc.procs:
			t.Errorf("Workload(%q, %d) runs %d procs", tc.name, tc.procs, app.Procs())
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("Workload(%q, %d) error = %v, want %q", tc.name, tc.procs, err, tc.want)
		}
	}
	if _, err := BTIO(btio.ClassA, 8, btio.Full); err == nil {
		t.Error("BTIO accepted 8 processes")
	}
	if _, err := MADbench(12, 4, 8, madbench.Unique); err == nil {
		t.Error("MADbench accepted 12 processes")
	}
}
