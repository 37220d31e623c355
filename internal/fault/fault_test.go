package fault

import (
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/ioreq"
	"ioeval/internal/raid"
	"ioeval/internal/sim"
)

func TestPlanPredicates(t *testing.T) {
	if !(Plan{}).Empty() {
		t.Fatal("zero plan not Empty")
	}
	df, err := Builtin("disk-fail")
	if err != nil {
		t.Fatal(err)
	}
	if df.Empty() {
		t.Fatal("disk-fail Empty")
	}
	if !df.RequiresRedundancy() {
		t.Fatal("disk-fail does not require redundancy")
	}
	sd, _ := Builtin("slow-disk")
	if sd.RequiresRedundancy() {
		t.Fatal("slow-disk requires redundancy")
	}
}

func TestBuiltins(t *testing.T) {
	names := BuiltinNames()
	if len(names) != 5 {
		t.Fatalf("BuiltinNames = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("BuiltinNames not sorted: %v", names)
		}
	}
	c := cluster.Aohyper(cluster.RAID5)
	for _, name := range names {
		pl, err := Builtin(name)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", name, err)
		}
		// Every builtin carries its own Name and a nonzero Seed, so a
		// run is reproducible without the -seed override.
		if pl.Name != name || pl.Seed == 0 || pl.Empty() {
			t.Fatalf("Builtin(%q) = %+v", name, pl)
		}
		if err := pl.Validate(c); err != nil {
			t.Fatalf("builtin %q invalid on Aohyper RAID5: %v", name, err)
		}
	}
	if _, err := Builtin("nope"); err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("Builtin(nope) error = %v", err)
	}
	// Mutating a returned builtin must not leak into later calls.
	pl, _ := Builtin("slow-disk")
	pl.Events[0].Factor = 99
	again, _ := Builtin("slow-disk")
	if again.Events[0].Factor != 4 {
		t.Fatal("builtin plan shared mutable state across calls")
	}
}

func TestValidateErrors(t *testing.T) {
	raid5 := cluster.Aohyper(cluster.RAID5)
	jbod := cluster.Aohyper(cluster.JBOD)
	cases := []struct {
		name string
		c    *cluster.Cluster
		pl   Plan
		want string
	}{
		{"negative-at", raid5, Plan{Events: []Event{{At: -sim.Second, Kind: DiskSlow, Member: 0, Factor: 2}}}, "negative injection time"},
		{"fail-on-jbod", jbod, Plan{Events: []Event{{Kind: DiskFail}}}, "no redundancy"},
		{"fail-bad-member", raid5, Plan{Events: []Event{{Kind: DiskFail, Member: 99}}}, "no array member"},
		{"fail-twice-raid5", raid5, Plan{Events: []Event{{Kind: DiskFail, Member: 0}, {Kind: DiskFail, Member: 1}}}, "second RAID 5 failure"},
		{"slow-bad-member", raid5, Plan{Events: []Event{{Kind: DiskSlow, Member: 99, Factor: 2}}}, "no I/O-node disk"},
		{"slow-factor", raid5, Plan{Events: []Event{{Kind: DiskSlow, Member: 0, Factor: 0.5}}}, "below 1"},
		{"degrade-unattached", raid5, Plan{Events: []Event{{Kind: NetDegrade, Node: "ghost", Factor: 2}}}, "not attached"},
		{"degrade-factor", raid5, Plan{Events: []Event{{Kind: NetDegrade, Factor: 0.9}}}, "below 1"},
		{"flap-no-duration", raid5, Plan{Events: []Event{{Kind: NetFlap}}}, "positive outage duration"},
		{"flap-no-period", raid5, Plan{Events: []Event{{Kind: NetFlap, Duration: sim.Second, Count: 3}}}, "positive period"},
		{"flap-neg-jitter", raid5, Plan{Events: []Event{{Kind: NetFlap, Duration: sim.Second, Jitter: -1}}}, "negative jitter"},
		{"stall-no-duration", raid5, Plan{Events: []Event{{Kind: NFSStall}}}, "positive duration"},
		{"rebuild-neg-delay", raid5, Plan{Events: []Event{{Kind: DiskFail, Rebuild: &Rebuild{Delay: -1}}}}, "negative rebuild delay"},
		{"rebuild-neg-bounds", raid5, Plan{Events: []Event{{Kind: DiskFail, Rebuild: &Rebuild{Bytes: -1}}}}, "negative rebuild bounds"},
	}
	for _, tc := range cases {
		err := tc.pl.Validate(tc.c)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	ok := Plan{Events: []Event{
		{Kind: DiskSlow, Member: 0, Factor: 2},
		{At: sim.Second, Kind: NetDegrade, Factor: 2},
		{At: sim.Second, Kind: NetFlap, Duration: 100 * sim.Millisecond},
		{At: sim.Second, Kind: NFSStall, Duration: sim.Second},
	}}
	if err := ok.Validate(raid5); err != nil {
		t.Fatalf("valid mixed plan rejected: %v", err)
	}
}

// TestApplyArmsCounters drains a multi-event plan on a real cluster and
// checks every injected action shows up on the injector probe.
func TestApplyArmsCounters(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	pl := Plan{
		Name: "mixed",
		Seed: 3,
		Events: []Event{
			{At: sim.Second, Kind: DiskSlow, Member: 0, Factor: 2},
			{At: sim.Second, Kind: NetDegrade, Factor: 2},
			{At: 2 * sim.Second, Kind: NetFlap, Duration: 100 * sim.Millisecond, Count: 2, Period: sim.Second},
			{At: 3 * sim.Second, Kind: NFSStall, Duration: 500 * sim.Millisecond, Restart: true},
		},
	}
	in, err := Apply(c, pl)
	if err != nil {
		t.Fatal(err)
	}
	c.Eng.Run()
	rec := in.Telemetry()
	for key, want := range map[string]int64{
		"disk_slowdowns": 1,
		"net_degrades":   1,
		"net_flaps":      2,
		"nfs_stalls":     1,
		"nfs_restarts":   1,
	} {
		if got := rec.AuxVal(key); got != want {
			t.Errorf("%s = %d, want %d", key, got, want)
		}
	}
	if in.Plan().Name != "mixed" {
		t.Fatalf("Plan() = %+v", in.Plan())
	}
}

// TestApplyDiskFailRebuild drains the builtin disk-fail scenario: the
// member fails, the bounded rebuild pass runs onto a spare, and both
// the injector and the array record it.
func TestApplyDiskFailRebuild(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	pl, _ := Builtin("disk-fail")
	in := MustApply(c, pl)
	c.Eng.Run()
	if got := in.Telemetry().AuxVal("disk_failures"); got != 1 {
		t.Fatalf("disk_failures = %d", got)
	}
	if got := in.Telemetry().AuxVal("rebuilds_started"); got != 1 {
		t.Fatalf("rebuilds_started = %d", got)
	}
	if got := in.Telemetry().AuxVal("rebuilds_completed"); got != 1 {
		t.Fatalf("rebuilds_completed = %d (rebuild pass did not finish)", got)
	}
	arr := c.Array.(*raid.Array)
	if got := arr.Telemetry().AuxVal("rebuild_bytes"); got != 256<<20 {
		t.Fatalf("array rebuild_bytes = %d, want %d", got, 256<<20)
	}
}

func TestApplyRejectsRanCluster(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	c.Eng.ScheduleAt(sim.Time(sim.Second), func() {})
	c.Eng.Run()
	pl, _ := Builtin("slow-disk")
	if _, err := Apply(c, pl); err == nil || !strings.Contains(err.Error(), "already ran") {
		t.Fatalf("Apply on ran cluster = %v", err)
	}
}

func TestApplyRejectsInvalidPlan(t *testing.T) {
	c := cluster.Aohyper(cluster.JBOD)
	pl, _ := Builtin("disk-fail")
	if _, err := Apply(c, pl); err == nil {
		t.Fatal("Apply(disk-fail) on JBOD did not error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustApply did not panic")
		}
	}()
	MustApply(c, pl)
}

// flapRunElapsed arms the net-flap builtin (with the given seed) and
// measures a fixed send workload through the flapping I/O-node link.
func flapRunElapsed(t *testing.T, seed int64) sim.Duration {
	t.Helper()
	c := cluster.Aohyper(cluster.RAID5)
	pl, _ := Builtin("net-flap")
	pl.Seed = seed
	if _, err := Apply(c, pl); err != nil {
		t.Fatal(err)
	}
	src := c.RankNodes(1)[0]
	var d sim.Duration
	c.Eng.Spawn("sender", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 6; i++ {
			c.DataNet.Send(ioreq.Meta(p), src, c.IONodeName, 16*(1<<20))
		}
		d = sim.Duration(p.Now() - t0)
	})
	c.Eng.Run()
	return d
}

// TestFlapJitterSeededDeterminism: equal seeds replay the jittered flap
// schedule byte-identically; the jitter is consumed at arm time only.
func TestFlapJitterSeededDeterminism(t *testing.T) {
	a := flapRunElapsed(t, 7)
	b := flapRunElapsed(t, 7)
	if a != b {
		t.Fatalf("same seed, different runs: %v vs %v", a, b)
	}
	if a == 0 {
		t.Fatal("sender measured nothing")
	}
}
