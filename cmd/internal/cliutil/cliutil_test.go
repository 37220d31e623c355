package cliutil

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ioeval/internal/bench"
	"ioeval/internal/catalog"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/fault"
	"ioeval/internal/sweep"
	"ioeval/internal/telemetry"
	"ioeval/internal/workload/flashio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{",,", nil},
		{"a", []string{"a"}},
		{"a,b", []string{"a", "b"}},
		{" a , b ,", []string{"a", "b"}},
		{"jbod, raid1,raid5", []string{"jbod", "raid1", "raid5"}},
	}
	for _, tc := range cases {
		if got := SplitList(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("SplitList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestClusterBuilder drives Method.Builder through -platform, -org
// and -pfs: each call builds a fresh cluster, and Cluster A stays
// RAID 5 whatever -org says.
func TestClusterBuilder(t *testing.T) {
	builder := func(args ...string) func() *cluster.Cluster {
		t.Helper()
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		m := MethodFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		build, err := m.Builder()
		if err != nil {
			t.Fatal(err)
		}
		return build
	}
	build := builder()
	if c := build(); c.Cfg != cluster.Aohyper(cluster.RAID5).Cfg {
		t.Errorf("default cluster: %+v", c.Cfg)
	}
	if build() == build() {
		t.Error("builder returned the same cluster twice (must be fresh per call)")
	}
	if c := builder("-platform", "clusterA", "-org", "jbod", "-pfs", "2")(); c.Cfg.Org != cluster.RAID5 || c.Cfg.PFSIONodes != 2 {
		t.Errorf("clusterA cluster: org %v, pfs %d", c.Cfg.Org, c.Cfg.PFSIONodes)
	}
}

func TestCharConfig(t *testing.T) {
	full := CharConfig(false, false)
	if !reflect.DeepEqual(full.FSBlockSizes, bench.DefaultBlockSizes()) {
		t.Error("full preset lost the paper block-size sweep")
	}
	if full.UsePFS {
		t.Error("UsePFS set without request")
	}

	quick := CharConfig(true, true)
	if !quick.UsePFS {
		t.Error("UsePFS not applied")
	}
	if len(quick.FSBlockSizes) >= len(full.FSBlockSizes) {
		t.Error("quick preset does not reduce the FS sweep")
	}
	if quick.LocalFileSize == 0 || quick.LocalFileSize >= 2<<30 {
		t.Errorf("quick LocalFileSize = %d, want small and explicit", quick.LocalFileSize)
	}
}

// TestFlagRegistration drives every shared flag helper through a real
// FlagSet: canonical names, defaults, and parsed values.
func TestFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	faultName := FaultFlag(fs)
	seed := SeedFlag(fs)
	spans := SpansFlag(fs)
	metrics := MetricsFlag(fs)
	storeDir := StoreFlag(fs)
	charWorkers := CharWorkersFlag(fs)

	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *faultName != "" || *seed != 0 || *spans || *metrics != "" || *storeDir != "" {
		t.Error("non-zero defaults on shared flags")
	}
	if *charWorkers != 0 {
		t.Errorf("-char-workers default = %d, want 0 (all CPUs)", *charWorkers)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	faultName = FaultFlag(fs)
	seed = SeedFlag(fs)
	spans = SpansFlag(fs)
	metrics = MetricsFlag(fs)
	storeDir = StoreFlag(fs)
	charWorkers = CharWorkersFlag(fs)
	err := fs.Parse([]string{
		"-fault", "disk-fail", "-seed", "42", "-spans",
		"-metrics", "m.json", "-store", "/tmp/cs", "-char-workers", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	if *faultName != "disk-fail" || *seed != 42 || !*spans ||
		*metrics != "m.json" || *storeDir != "/tmp/cs" || *charWorkers != 4 {
		t.Errorf("parsed values: fault=%q seed=%d spans=%v metrics=%q store=%q char-workers=%d",
			*faultName, *seed, *spans, *metrics, *storeDir, *charWorkers)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	list := FaultListFlag(fs)
	if err := fs.Parse([]string{"-fault", "none,disk-fail"}); err != nil {
		t.Fatal(err)
	}
	if got := SplitList(*list); !reflect.DeepEqual(got, []string{"none", "disk-fail"}) {
		t.Errorf("fault list = %v", got)
	}
}

// TestSizeFlag drives SizeFlag through a real FlagSet: flag.Int64's
// number syntax, bytes out, the -h default printed in the flag's
// unit, and rejection of a value whose byte count overflows int64
// (2^54 KiB would wrap a later <<10 to 0).
func TestSizeFlag(t *testing.T) {
	cases := []struct {
		name    string
		unit    uint
		args    []string
		want    int64 // bytes
		wantErr string
	}{
		{"default KiB", KiB, nil, 32 << 10, ""},
		{"default MiB", MiB, nil, 32 << 20, ""},
		{"decimal KiB", KiB, []string{"-size", "1024"}, 1 << 20, ""},
		{"decimal MiB", MiB, []string{"-size", "64"}, 64 << 20, ""},
		{"hex", KiB, []string{"-size", "0x400"}, 1 << 20, ""},
		{"largest KiB", KiB, []string{"-size", "9007199254740991"}, 9007199254740991 << 10, ""},
		{"KiB bytes overflow", KiB, []string{"-size", "18014398509481984"}, 0, "value out of range"},
		{"MiB bytes overflow", MiB, []string{"-size", "0x80000000000"}, 0, "value out of range"},
		{"negative bytes overflow", KiB, []string{"-size", "-18014398509481985"}, 0, "value out of range"},
		{"int64 overflow", KiB, []string{"-size", "9223372036854775808"}, 0, "value out of range"},
		{"not a number", KiB, []string{"-size", "4k"}, 0, "parse error"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		size := SizeFlag(fs, "size", 32, tc.unit, "a size")
		err := fs.Parse(tc.args)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: Parse(%q) error = %v, want %q", tc.name, tc.args, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: Parse(%q): %v", tc.name, tc.args, err)
		} else if got := size.Bytes(); got != tc.want {
			t.Errorf("%s: Parse(%q) = %d bytes, want %d", tc.name, tc.args, got, tc.want)
		}
	}

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var help strings.Builder
	fs.SetOutput(&help)
	SizeFlag(fs, "max", 16384, KiB, "largest block size in `KiB`")
	fs.PrintDefaults()
	if want := "  -max KiB\n    \tlargest block size in KiB (default 16384)\n"; help.String() != want {
		t.Errorf("-h text = %q, want %q", help.String(), want)
	}
}

func TestFaultPlan(t *testing.T) {
	if plan, err := FaultPlan("", 99); plan != nil || err != nil {
		t.Errorf("empty name: plan=%v err=%v, want nil,nil", plan, err)
	}
	if _, err := FaultPlan("no-such-fault", 0); err == nil {
		t.Error("unknown scenario accepted")
	}
	plan, err := FaultPlan("disk-fail", 0)
	if err != nil || plan == nil {
		t.Fatalf("builtin: plan=%v err=%v", plan, err)
	}
	kept := plan.Seed
	override, err := FaultPlan("disk-fail", 1234)
	if err != nil {
		t.Fatal(err)
	}
	if override.Seed != 1234 {
		t.Errorf("seed override not applied: %d", override.Seed)
	}
	if plan.Seed != kept {
		t.Error("seed override mutated the earlier plan")
	}
}

func TestOpenStore(t *testing.T) {
	st, err := OpenStore("")
	if st != nil || err != nil {
		t.Errorf("OpenStore(\"\") = %v, %v, want nil,nil", st, err)
	}
	st, err = OpenStore(t.TempDir())
	if err != nil || st == nil {
		t.Fatalf("OpenStore(tempdir): %v, %v", st, err)
	}
	if !strings.Contains(StoreSummary(st), "store ") {
		t.Error("StoreSummary missing prefix")
	}
}

func TestWriteFileFn(t *testing.T) {
	path := t.TempDir() + "/out.txt"
	if err := WriteFileFn(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileFn(path, func(io.Writer) error { return io.ErrClosedPipe }); err != io.ErrClosedPipe {
		t.Errorf("write error not surfaced: %v", err)
	}
}

// TestEnumFlags parses every valid value and one invalid value of each
// command's enum flags: a valid value (and the default) passes the
// check, an invalid one fails it with an error naming every valid
// value.
func TestEnumFlags(t *testing.T) {
	faults := fault.BuiltinNames()
	cases := []struct {
		flag    string // command and flag, for messages
		def     string
		values  []string
		list    bool
		invalid string
	}{
		{"-platform", "aohyper", catalog.Platforms, false, "beowulf"},
		{"-org", "raid5", catalog.Orgs, false, "raid6"},
		{"-fault", "", faults, false, "disk-fial"},
		{"iomethod -app", "btio", Apps, false, "ior"},
		{"iomethod, btio, tracetool -subtype", "full", Subtypes, false, "simpel"},
		{"iomethod, madbench -filetype", "shared", FileTypes, false, "private"},
		{"btio -class", "C", Classes, false, "D"},
		{"iozone -target", "local", Targets, false, "nsf"},
		{"iozone -modes", "seq", Modes, true, "seq,random"},
		{"tracetool -capture", "", Apps[:2], false, "flashio"},
		{"iosynth -emit", "", catalog.Workloads[:4], false, "flashio"},
		{"iosweep -platforms", "aohyper", catalog.Platforms, true, "aohyper,beowulf"},
		{"iosweep -orgs", "jbod", catalog.Orgs, true, "jbod,raid6"},
		{"iosweep -rank", "io-time", Ranks, false, "time"},
		{"iosweep -apps", "btio-full", catalog.Workloads, true, "btio"},
		{"iosweep -fault", "", append([]string{"none"}, faults...), true, "none,disk-fial"},
	}
	parse := func(tc int, args ...string) error {
		c := cases[tc]
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		if c.list {
			EnumListFlag(fs, "f", c.def, "usage", c.values...)
		} else {
			EnumFlag(fs, "f", c.def, "usage", c.values...)
		}
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return check(fs)
	}
	for i, c := range cases {
		if err := parse(i); err != nil {
			t.Errorf("%s: default %q rejected: %v", c.flag, c.def, err)
		}
		for _, v := range c.values {
			if err := parse(i, "-f", v); err != nil {
				t.Errorf("%s %s: %v", c.flag, v, err)
			}
		}
		if c.list {
			if err := parse(i, "-f", strings.Join(c.values, ",")); err != nil {
				t.Errorf("%s with every value: %v", c.flag, err)
			}
		}
		err := parse(i, "-f", c.invalid)
		if err == nil {
			t.Errorf("%s %s accepted", c.flag, c.invalid)
		} else if !strings.Contains(err.Error(), oneOf(c.values)) {
			t.Errorf("%s %s: error %q does not name the valid values", c.flag, c.invalid, err)
		}
	}
}

// TestMethodPFSFlag: the shared method flags' -pfs takes 0 or more,
// and a negative count fails Parse's check with an error naming the
// flag, as iosweep's -pfs list does.
func TestMethodPFSFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
		err  string
	}{
		{nil, 0, ""},
		{[]string{"-pfs", "2"}, 2, ""},
		{[]string{"-pfs", "0"}, 0, ""},
		{[]string{"-pfs", "-1"}, 0, "invalid value -1 for flag -pfs: want 0 or more"},
		{[]string{"-pfs", "-3", "-platform", "clusterA"}, 0, "invalid value -3 for flag -pfs"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		m := MethodFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := check(fs)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q: %v", tc.args, err)
		case tc.err == "" && *m.pfs != tc.want:
			t.Errorf("%q: -pfs = %d, want %d", tc.args, *m.pfs, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error = %v, want %q", tc.args, err, tc.err)
		}
	}
}

// TestMethodRunOnPFS: under -pfs n, Method.Run runs the workload with
// its NFS files on the parallel FS the session characterizes. Every
// byte it writes goes through the PFS clients, none through the NFS
// clients, and the app passed in keeps its NFS spec.
func TestMethodRunOnPFS(t *testing.T) {
	tiny := core.CharacterizeConfig{
		FSBlockSizes:   []int64{1 << 20},
		FSModes:        []bench.Mode{bench.SeqWrite, bench.SeqRead},
		LocalFileSize:  32 << 20,
		GlobalFileSize: 32 << 20,
		LibProcs:       2,
		LibBlockSizes:  []int64{4 << 20},
		LibTransfer:    256 << 10,
		LibFileSize:    8 << 20,
		RandomOps:      64,
		UsePFS:         true,
	}
	apps := []*synth.App{
		madbench.New(madbench.Config{Procs: 4, KPix: 1, Bins: 2, FileType: madbench.Shared}).App,
		flashio.New(flashio.Config{Procs: 4, BlocksPerProc: 4}).App,
	}
	for _, app := range apps {
		metrics := filepath.Join(t.TempDir(), "m.json")
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		m := MethodFlags(fs)
		if err := fs.Parse([]string{"-pfs", "2", "-char-workers", "1", "-metrics", metrics}); err != nil {
			t.Fatal(err)
		}
		build, err := m.Builder()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := m.Session(build, core.WithCharacterizeConfig(tiny))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(sess, app); err != nil {
			t.Fatalf("%s: %v", app.Name(), err)
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		var rep telemetry.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		written := map[string]int64{}
		for _, s := range rep.Components {
			kind, _, _ := strings.Cut(s.Component, ":")
			written[kind] += s.Counters.Write.Bytes
		}
		if written["pfs-client"] == 0 || written["nfs-client"] != 0 {
			t.Errorf("%s: %d bytes written through PFS clients, %d through NFS clients",
				app.Name(), written["pfs-client"], written["nfs-client"])
		}
		if f := app.Spec().Files[0]; f.Mount != "" && f.Mount != "nfs" {
			t.Errorf("%s: Run moved the given spec's file to %q", app.Name(), f.Mount)
		}
	}
}

func TestOneOf(t *testing.T) {
	for in, want := range map[string]string{"": "", "a": "a", "a,b": "a or b", "a,b,c": "a, b or c"} {
		if got := oneOf(SplitList(in)); got != want {
			t.Errorf("oneOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWorkloadName(t *testing.T) {
	for _, tc := range []struct{ app, subtype, filetype, want string }{
		{"btio", "full", "shared", "btio-full"},
		{"btio", "simple", "unique", "btio-simple"},
		{"madbench", "simple", "unique", "madbench-unique"},
		{"madbench", "full", "shared", "madbench-shared"},
		{"flashio", "simple", "unique", "flashio"},
	} {
		if got := WorkloadName(tc.app, tc.subtype, tc.filetype); got != tc.want {
			t.Errorf("WorkloadName(%q, %q, %q) = %q, want %q", tc.app, tc.subtype, tc.filetype, got, tc.want)
		}
	}
}

func TestStoredWithoutStore(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	s := StoredFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	build, err := catalog.Builder("aohyper", cluster.JBOD, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sess, err := s.session(build); sess != nil || err != nil || s.Store != nil {
		t.Errorf("session without -store = %v, %v (store %v), want nil, nil", sess, err, s.Store)
	}
}

// TestRanksParse keeps the -rank value set in step with the sweep's
// metrics.
func TestRanksParse(t *testing.T) {
	for _, r := range Ranks {
		if m, err := sweep.ParseMetric(r); err != nil || m.String() != r {
			t.Errorf("ParseMetric(%q) = %v, %v", r, m, err)
		}
	}
}
