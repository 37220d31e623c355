package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ioeval/internal/sim"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.observe(500*sim.Nanosecond, 1) // bucket 0: <1µs
	h.observe(5*sim.Microsecond, 2)  // bucket 1
	h.observe(sim.Millisecond, 3)    // bucket 4: <10ms
	h.observe(2*sim.Second, 4)       // last bucket
	want := [NumBuckets]int64{0: 1, 1: 2, 4: 3, NumBuckets - 1: 4}
	if h.Counts != want {
		t.Fatalf("counts = %v, want %v", h.Counts, want)
	}
	if h.Total() != 10 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestRecorderObserve(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng, "disk:test", LevelDevice, 1)
	r.Observe(ClassWrite, 4, 4096, 40*sim.Microsecond)
	r.Observe(ClassRead, 1, 512, sim.Millisecond)
	r.Observe(ClassMeta, 1, 0, sim.Microsecond)
	r.Observe(ClassRead, 0, 99, sim.Second) // ops<=0 ignored
	r.Add(NewAuxKey("evictions"), 3)

	s := r.Snapshot()
	if s.Component != "disk:test" || s.Level != LevelDevice || s.Units != 1 {
		t.Fatalf("snapshot identity = %+v", s)
	}
	c := s.Counters
	if c.Write.Ops != 4 || c.Write.Bytes != 4096 || c.Write.Busy != 40*sim.Microsecond {
		t.Fatalf("write counters = %+v", c.Write)
	}
	if c.Read.Ops != 1 || c.Read.Bytes != 512 {
		t.Fatalf("read counters = %+v", c.Read)
	}
	if c.Meta.Ops != 1 {
		t.Fatalf("meta counters = %+v", c.Meta)
	}
	// Histogram total must equal ops per class: 4 writes at 10µs each
	// (bucket bounds are exclusive, so 10µs lands in the <100µs bucket).
	if c.Write.Lat.Total() != 4 || c.Write.Lat.Counts[2] != 4 {
		t.Fatalf("write histogram = %v", c.Write.Lat)
	}
	if c.Aux["evictions"] != 3 {
		t.Fatalf("aux = %v", c.Aux)
	}
	if c.Write.MeanLatency() != 10*sim.Microsecond {
		t.Fatalf("mean latency = %v", c.Write.MeanLatency())
	}
}

func TestRecorderQueueDepth(t *testing.T) {
	r := NewRecorder(sim.NewEngine(), "q", LevelCache, 1)
	r.Enter()
	r.Enter()
	r.Enter()
	r.Exit()
	s := r.Snapshot()
	if s.Counters.QueueDepth != 2 || s.Counters.MaxQueueDepth != 3 {
		t.Fatalf("queue = %d max = %d", s.Counters.QueueDepth, s.Counters.MaxQueueDepth)
	}
}

func TestSnapshotSubDeltas(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng, "c", LevelLocalFS, 2)

	r.Observe(ClassWrite, 10, 1000, 100*sim.Millisecond)
	r.Add(NewAuxKey("aux"), 5)
	r.Enter()
	eng.Schedule(sim.Second, func() {})
	eng.Run()
	s1 := r.Snapshot()

	r.Observe(ClassWrite, 5, 500, 50*sim.Millisecond)
	r.Observe(ClassRead, 1, 64, sim.Millisecond)
	r.Add(NewAuxKey("aux"), 2)
	eng.Schedule(sim.Second, func() {})
	eng.Run()
	s2 := r.Snapshot()

	d := s2.Sub(s1)
	if d.Interval != sim.Second {
		t.Fatalf("interval = %v", d.Interval)
	}
	if d.Counters.Write.Ops != 5 || d.Counters.Write.Bytes != 500 || d.Counters.Write.Busy != 50*sim.Millisecond {
		t.Fatalf("write delta = %+v", d.Counters.Write)
	}
	if d.Counters.Read.Ops != 1 {
		t.Fatalf("read delta = %+v", d.Counters.Read)
	}
	if d.Counters.Aux["aux"] != 2 {
		t.Fatalf("aux delta = %v", d.Counters.Aux)
	}
	// Gauge and high-water keep the current value, not a difference.
	if d.Counters.QueueDepth != 1 || d.Counters.MaxQueueDepth != 1 {
		t.Fatalf("gauges = %+v", d.Counters)
	}
	if d.Counters.Write.Lat.Total() != 5 {
		t.Fatalf("histogram delta total = %d", d.Counters.Write.Lat.Total())
	}
	// Deltas plus the earlier interval reconstruct the run totals.
	sum := s1.Counters.Write.Ops + d.Counters.Write.Ops
	if sum != s2.Counters.Write.Ops {
		t.Fatalf("delta does not sum: %d + %d != %d", s1.Counters.Write.Ops, d.Counters.Write.Ops, s2.Counters.Write.Ops)
	}
}

func TestSnapshotSubCrossComponentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := Snapshot{Component: "a"}
	b := Snapshot{Component: "b"}
	a.Sub(b)
}

func TestSnapshotUtilization(t *testing.T) {
	s := Snapshot{
		Units:    2,
		Interval: sim.Second,
		Counters: Counters{Write: OpCounters{Busy: sim.Second}},
	}
	if u := s.Utilization(); u != 0.5 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	if u := (Snapshot{}).Utilization(); u != 0 {
		t.Fatalf("zero-interval utilization = %v", u)
	}
	if r := s.Rate(ClassWrite); r != 0 {
		t.Fatalf("rate with zero bytes = %v", r)
	}
	s.Counters.Write.Bytes = 100 << 20
	if r := s.Rate(ClassWrite); r != float64(100<<20) {
		t.Fatalf("rate = %v", r)
	}
}

func TestRegistrySubPassthrough(t *testing.T) {
	eng := sim.NewEngine()
	g := NewRegistry()
	a := NewRecorder(eng, "a", LevelDevice, 1)
	g.Register(a)
	a.Observe(ClassRead, 1, 100, sim.Millisecond)
	prev := g.Snapshots()

	b := NewRecorder(eng, "b", LevelDevice, 1)
	g.Register(b)
	a.Observe(ClassRead, 2, 200, sim.Millisecond)
	b.Observe(ClassWrite, 1, 50, sim.Millisecond)
	cur := g.Snapshots()

	d := Sub(cur, prev)
	if len(d) != 2 {
		t.Fatalf("deltas = %d", len(d))
	}
	if d[0].Counters.Read.Ops != 2 || d[0].Counters.Read.Bytes != 200 {
		t.Fatalf("a delta = %+v", d[0].Counters.Read)
	}
	// b missing from prev: passed through unchanged (delta from zero).
	if d[1].Counters.Write.Ops != 1 {
		t.Fatalf("b passthrough = %+v", d[1].Counters.Write)
	}
}

func TestMeanUtilizationEmpty(t *testing.T) {
	if u := MeanUtilization(nil); u != 0 {
		t.Fatalf("empty mean = %v, want 0 (not NaN)", u)
	}
}

func TestReportJSONRoundtrip(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng, "disk:sda", LevelDevice, 1)
	r.Observe(ClassWrite, 3, 3000, 30*sim.Microsecond)
	r.Add(NewAuxKey("random_ops"), 1)
	rep := &Report{
		App:        "test-app",
		Config:     "test-cfg",
		At:         sim.Time(sim.Second),
		Components: []Snapshot{r.Snapshot()},
		Levels: []LevelRate{{
			Level: LevelGlobalFS, Op: "write", BlockSize: 1 << 20, Mode: "sequential",
			MeasuredRate: 50e6, CharRate: 100e6, UsedPct: 50, CharAvailable: true,
		}},
		Phases: []PhaseInterval{{
			Label: "phase-1", Kind: "write", Start: 0, End: sim.Time(sim.Second),
			Snaps: []Snapshot{r.Snapshot()},
		}},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := new(Report)
	if err := json.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// WriteJSON stamps the versioned envelope; the in-memory report
	// under it must survive unchanged.
	if got.Format != ReportFormat || got.Version != ReportVersion {
		t.Fatalf("envelope = %q v%d, want %q v%d", got.Format, got.Version, ReportFormat, ReportVersion)
	}
	got.Format, got.Version = "", 0
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("roundtrip mismatch:\nwant %+v\ngot  %+v", rep, got)
	}
	if got.Levels[0].Level != LevelGlobalFS {
		t.Fatalf("level text roundtrip = %v", got.Levels[0].Level)
	}
}

func TestLevelTextRoundtrip(t *testing.T) {
	for _, l := range []Level{LevelLibrary, LevelGlobalFS, LevelLocalFS, LevelCache, LevelBlock, LevelDevice, LevelNetwork} {
		b, err := l.MarshalText()
		if err != nil {
			t.Fatalf("marshal %v: %v", l, err)
		}
		var back Level
		if err := back.UnmarshalText(b); err != nil || back != l {
			t.Fatalf("roundtrip %v: got %v err %v", l, back, err)
		}
	}
	var l Level
	if err := l.UnmarshalText([]byte("bogus")); err == nil {
		t.Fatal("expected error for unknown level")
	}
}

// Interning is by name: one name, one key, whichever package asks.
func TestNewAuxKeyInterns(t *testing.T) {
	a, b := NewAuxKey("intern_a"), NewAuxKey("intern_b")
	if a == b {
		t.Fatalf("distinct names share key %d", a)
	}
	if again := NewAuxKey("intern_a"); again != a {
		t.Fatalf("re-interning intern_a gave %d, want %d", again, a)
	}
	if names := AuxNames(); len(names) <= int(b) || names[a] != "intern_a" || names[b] != "intern_b" {
		t.Fatalf("AuxNames() = %v, want intern_a at %d and intern_b at %d", names, a, b)
	}
}

// A snapshot carries exactly the keys added to, zero adds included,
// and AuxVal reads a counter by name.
func TestAuxSnapshotTouched(t *testing.T) {
	r := NewRecorder(nil, "cache:test", LevelCache, 1)
	if s := r.Snapshot(); s.Counters.Aux != nil {
		t.Fatalf("untouched recorder has aux %v", s.Counters.Aux)
	}
	hit, miss := NewAuxKey("touch_hit"), NewAuxKey("touch_miss")
	NewAuxKey("touch_never")
	r.Add(hit, 0)
	r.Add(miss, 4096)
	r.Add(miss, 4096)
	got := r.Snapshot().Counters.Aux
	want := map[string]int64{"touch_hit": 0, "touch_miss": 8192}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aux = %v, want %v", got, want)
	}
	if r.AuxVal("touch_miss") != 8192 || r.AuxVal("touch_never") != 0 || r.AuxVal("no_such_key") != 0 {
		t.Fatalf("AuxVal: miss %d never %d unknown %d",
			r.AuxVal("touch_miss"), r.AuxVal("touch_never"), r.AuxVal("no_such_key"))
	}
	// A key interned after the recorder last grew still lands.
	late := NewAuxKey("touch_late")
	r.Add(late, 1)
	if r.Snapshot().Counters.Aux["touch_late"] != 1 {
		t.Fatalf("late key lost: %v", r.Snapshot().Counters.Aux)
	}
}

// Adding to an interned key is a slice-slot add: no allocation once
// the recorder has grown to hold it.
func TestAuxAddAllocs(t *testing.T) {
	r := NewRecorder(nil, "c", LevelCache, 1)
	k := NewAuxKey("alloc_probe")
	if n := testing.AllocsPerRun(1000, func() { r.Add(k, 1) }); n != 0 {
		t.Fatalf("%v allocs per Add, want 0", n)
	}
}
