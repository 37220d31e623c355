package core

import (
	"strings"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/trace"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

const gb = int64(1) << 30

// quickCharCfg keeps characterization fast for unit tests.
func quickCharCfg() CharacterizeConfig {
	return CharacterizeConfig{
		FSBlockSizes: []int64{64 * kb, mb, 4 * mb},
		FSModes: []bench.Mode{
			bench.SeqWrite, bench.SeqRead,
			bench.StrideWrite, bench.StrideRead,
		},
		LocalFileSize:  512 * mb,
		GlobalFileSize: 512 * mb,
		LibProcs:       4,
		LibBlockSizes:  []int64{4 * mb, 32 * mb},
		LibTransfer:    256 * kb,
		LibFileSize:    256 * mb,
		RandomOps:      512,
	}
}

func TestCharacterizeProducesThreeLevels(t *testing.T) {
	ch, err := characterize(func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }, quickCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	for _, level := range Levels() {
		tab := ch.Table(level)
		if tab == nil || len(tab.Rows) == 0 {
			t.Fatalf("level %v has no rows", level)
		}
		for _, r := range tab.Rows {
			if r.Rate <= 0 {
				t.Fatalf("level %v: non-positive rate in %+v", level, r)
			}
		}
	}
	// Path ordering: NFS-level rates cannot exceed the wire; local FS
	// large sequential reads must beat NFS ones (no network hop).
	nfsRead, _, _ := ch.Table(LevelNFS).Lookup(Read, 4*mb, Global, trace.Sequential)
	localRead, _, _ := ch.Table(LevelLocalFS).Lookup(Read, 4*mb, Local, trace.Sequential)
	if nfsRead > 117e6 {
		t.Fatalf("NFS read rate %.1f MB/s beats GigE", nfsRead/1e6)
	}
	if localRead <= nfsRead {
		t.Fatalf("local read (%.1f) not faster than NFS (%.1f)", localRead/1e6, nfsRead/1e6)
	}
}

func TestMeasurementsFromTrace(t *testing.T) {
	tr := trace.New()
	tr.Record(mpiio.Event{Rank: 0, Op: mpiio.OpWrite, File: "/f", Offset: 0,
		Bytes: 100 * mb, Count: 10, T0: 0, T1: sim.Time(sim.Second)})
	tr.Record(mpiio.Event{Rank: 1, Op: mpiio.OpWrite, File: "/f", Offset: 0,
		Bytes: 100 * mb, Count: 10, T0: 0, T1: sim.Time(2 * sim.Second)})
	ms := MeasurementsFromTrace(tr, Global)
	if len(ms) != 1 {
		t.Fatalf("measurements = %+v", ms)
	}
	m := ms[0]
	if m.Op != Write || m.Ops != 20 || m.Bytes != 200*mb {
		t.Fatalf("measurement = %+v", m)
	}
	// Aggregate rate: 200 MB over the slowest rank's 2 s = 100 MB/s.
	if m.Rate < 100e6 || m.Rate > 105e6 {
		t.Fatalf("rate = %.1f MB/s, want ~104", m.Rate/1e6)
	}
	if m.BlockSize != 10*mb {
		t.Fatalf("block size = %d", m.BlockSize)
	}
}

func TestUsedTableAgainstKnownRates(t *testing.T) {
	ch := &Characterization{Config: "t", Tables: map[Level]*PerfTable{
		LevelNFS: {Level: LevelNFS, Rows: []Row{
			{Op: Write, BlockSize: mb, Access: Global, Mode: trace.Sequential, Rate: 100e6},
		}},
		LevelLocalFS: {Level: LevelLocalFS, Rows: []Row{
			{Op: Write, BlockSize: mb, Access: Local, Mode: trace.Sequential, Rate: 200e6},
		}},
	}}
	ms := []Measurement{{Op: Write, BlockSize: mb, Access: Global, Mode: trace.Sequential, Rate: 50e6, Ops: 1, Bytes: mb}}
	used := UsedTable(ms, ch)
	if len(used) != 2 {
		t.Fatalf("used rows = %d, want 2 (levels with tables)", len(used))
	}
	for _, u := range used {
		switch u.Level {
		case LevelNFS:
			if u.UsedPct != 50 {
				t.Fatalf("NFS used%% = %.1f, want 50", u.UsedPct)
			}
		case LevelLocalFS:
			if u.UsedPct != 25 {
				t.Fatalf("local used%% = %.1f, want 25", u.UsedPct)
			}
		}
	}
}

// The end-to-end methodology on a reduced BT-IO: full subtype must
// use a much higher fraction of the I/O system than simple (the
// paper's Tables III/IV conclusion).
func TestEndToEndFullVsSimple(t *testing.T) {
	build := func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }
	ch, err := characterize(build, quickCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	quick := btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5}
	run := func(st btio.Subtype) *Evaluation {
		ev, err := evaluate(build(), btio.New(btio.Config{Class: quick, Procs: 4, Subtype: st}), ch)
		if err != nil {
			t.Fatalf("evaluate: %v", err)
		}
		return ev
	}
	full := run(btio.Full)
	simple := run(btio.Simple)

	fullW := full.UsedFor(LevelIOLib, Write)
	simpleW := simple.UsedFor(LevelIOLib, Write)
	if fullW < 0 || simpleW < 0 {
		t.Fatalf("missing used rows: full=%v simple=%v", fullW, simpleW)
	}
	if fullW < 2*simpleW {
		t.Fatalf("full library write used%% (%.1f) not ≫ simple (%.1f)", fullW, simpleW)
	}
	if simple.Result().IOTime < full.Result().IOTime {
		t.Fatalf("simple I/O time (%v) below full (%v)", simple.Result().IOTime, full.Result().IOTime)
	}
	// Profiles: full has 1 op per rank per dump; simple has thousands.
	if simple.Profile().NumWrites < 100*full.Profile().NumWrites {
		t.Fatalf("op counts: full=%d simple=%d", full.Profile().NumWrites, simple.Profile().NumWrites)
	}
}

func TestEvaluateMadBenchReportsPhases(t *testing.T) {
	build := func() *cluster.Cluster { return cluster.Aohyper(cluster.JBOD) }
	ch, err := characterize(build, quickCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize: %v", err)
	}
	app := madbench.New(madbench.Config{Procs: 4, KPix: 4, Bins: 4, FileType: madbench.Shared})
	ev, err := evaluate(build(), app, ch)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if ev.Result().PhaseRates["S_w"] <= 0 {
		t.Fatalf("phase rates missing: %+v", ev.Result().PhaseRates)
	}
	if ev.UsedFor(LevelNFS, Write) <= 0 || ev.UsedFor(LevelNFS, Read) <= 0 {
		t.Fatalf("used table incomplete: %+v", ev.Used())
	}
}

func TestReports(t *testing.T) {
	tab := testTable()
	s := FormatPerfTable(tab)
	if !strings.Contains(s, "OperationType") || !strings.Contains(s, "network FS") {
		t.Fatalf("perf table render:\n%s", s)
	}
	used := []UsedRow{{Level: LevelNFS, Op: Write, BlockSize: mb, Mode: trace.Sequential,
		MeasuredRate: 50e6, CharRate: 100e6, UsedPct: 50, CharAvailable: true}}
	s = FormatUsedTable(used)
	if !strings.Contains(s, "50.0") {
		t.Fatalf("used table render:\n%s", s)
	}
	s = AnalyzeConfiguration(cluster.Aohyper(cluster.RAID1))
	if !strings.Contains(s, "RAID1") {
		t.Fatalf("config analysis render:\n%s", s)
	}
}

// The methodology on a parallel-filesystem configuration: the same
// application that collapses on NFS (per-op locks + sync commits)
// exploits a far larger fraction of a PVFS-like deployment, and the
// characterization machinery handles the alternate architecture
// end to end.
func TestMethodologyOnPFS(t *testing.T) {
	pfsCfg := cluster.Aohyper(cluster.RAID5).Cfg
	pfsCfg.PFSIONodes = 4
	buildPFS := func() *cluster.Cluster { return cluster.New(pfsCfg) }

	charCfg := quickCharCfg()
	charCfg.UsePFS = true
	chPFS, err := characterize(buildPFS, charCfg, nil)
	if err != nil {
		t.Fatalf("characterize PFS: %v", err)
	}
	if chPFS.Config != "aohyper/pfs-4" {
		t.Fatalf("config name = %q", chPFS.Config)
	}
	for _, level := range Levels() {
		if tab := chPFS.Table(level); tab == nil || len(tab.Rows) == 0 {
			t.Fatalf("PFS level %v not characterized", level)
		}
	}

	quickClass := btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5}
	onPFS, err := synth.Remount(btio.New(btio.Config{
		Class: quickClass, Procs: 4, Subtype: btio.Simple,
	}), "pfs")
	if err != nil {
		t.Fatal(err)
	}
	evPFS, err := evaluate(buildPFS(), onPFS, chPFS)
	if err != nil {
		t.Fatalf("evaluate on PFS: %v", err)
	}

	buildNFS := func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }
	chNFS, err := characterize(buildNFS, quickCharCfg(), nil)
	if err != nil {
		t.Fatalf("characterize NFS: %v", err)
	}
	evNFS, err := evaluate(buildNFS(), btio.New(btio.Config{
		Class: quickClass, Procs: 4, Subtype: btio.Simple,
	}), chNFS)
	if err != nil {
		t.Fatalf("evaluate on NFS: %v", err)
	}

	if evPFS.Result().IOTime >= evNFS.Result().IOTime {
		t.Fatalf("simple on PFS (%v) not faster than on NFS (%v)",
			evPFS.Result().IOTime, evNFS.Result().IOTime)
	}
	pfsUsed := evPFS.UsedFor(LevelNFS, Write)
	nfsUsed := evNFS.UsedFor(LevelNFS, Write)
	if pfsUsed <= nfsUsed {
		t.Fatalf("simple write used%%: PFS %.1f not above NFS %.1f", pfsUsed, nfsUsed)
	}
}

func TestSessionFacade(t *testing.T) {
	sess := NewSession(
		func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) },
		WithCharacterizeConfig(quickCharCfg()),
		WithRequirements(Requirements{MinWriteRate: 10e6, MaxIOFraction: 0.99}),
	)
	quickClass := btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5}
	rep, err := sess.Run(btio.New(btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full}))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := rep.String()
	for _, want := range []string{
		"I/O configuration analysis", "Characterization", "Evaluation",
		"Requirements", "Utilization", "Used%", "IOPS",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
	// Characterization must be cached across runs.
	ch1 := rep.Characterization
	rep2, err := sess.Run(btio.New(btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Simple}))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if rep2.Characterization != ch1 {
		t.Fatal("characterization recomputed")
	}
}

func TestSessionNeedsBuilder(t *testing.T) {
	sess := NewSession(nil)
	if _, err := sess.Characterization(); err == nil {
		t.Fatal("expected error without a builder")
	}
}

// Distinct sessions must characterize in parallel: each Build
// function below waits until the other session's Build has also
// started, so the test deadlocks (and times out) if first-time
// characterizations serialize behind a lock held across the
// characterization phase.
func TestSessionsCharacterizeInParallel(t *testing.T) {
	cfg := quickCharCfg()
	cfg.FSBlockSizes = cfg.FSBlockSizes[:1]
	cfg.FSModes = cfg.FSModes[:2]
	cfg.LibBlockSizes = cfg.LibBlockSizes[:1]

	started := make(chan int, 2)
	release := make(chan struct{})
	mk := func(id int) *Session {
		first := true
		return NewSession(func() *cluster.Cluster {
			if first { // characterization builds several clusters; gate only the first
				first = false
				started <- id
				<-release
			}
			return cluster.Aohyper(cluster.JBOD)
		}, WithCharacterizeConfig(cfg))
	}
	ms := []*Session{mk(0), mk(1)}
	done := make(chan error, len(ms))
	for _, m := range ms {
		go func(m *Session) {
			_, err := m.Characterization()
			done <- err
		}(m)
	}
	seen := map[int]bool{}
	for i := 0; i < len(ms); i++ {
		seen[<-started] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("both characterizations should be in flight, got %v", seen)
	}
	close(release)
	for range ms {
		if err := <-done; err != nil {
			t.Fatalf("characterize: %v", err)
		}
	}
}
