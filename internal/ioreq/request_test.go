package ioreq

import (
	"testing"
	"unsafe"

	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

const ms = 1000 * sim.Microsecond

// recAt builds a recorder at level for spans to open on.
func recAt(e *sim.Engine, level telemetry.Level) *telemetry.Recorder {
	return telemetry.NewRecorder(e, level.String(), level, 1)
}

// TestSpanSelfTime checks the self-time arithmetic on a simple nest:
// a parent span whose child covers part of its interval attributes
// only the uncovered remainder to itself.
func TestSpanSelfTime(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector()
	e.Spawn("req", func(p *sim.Proc) {
		r := Writer(p).SetCollector(col)
		r.PushOn(recAt(e, telemetry.LevelLibrary))
		p.Sleep(2 * ms)
		r.PushOn(recAt(e, telemetry.LevelGlobalFS))
		p.Sleep(5 * ms)
		r.Pop()
		p.Sleep(3 * ms)
		r.Pop()
		if d := r.Depth(); d != 0 {
			t.Errorf("depth after balanced pops = %d, want 0", d)
		}
	})
	e.Run()
	prof := col.Profile()
	lib := prof.Cell(telemetry.LevelLibrary, telemetry.ClassWrite)
	gfs := prof.Cell(telemetry.LevelGlobalFS, telemetry.ClassWrite)
	if lib.Busy != 10*ms || lib.Self != 5*ms {
		t.Errorf("library busy=%v self=%v, want 10ms/5ms", lib.Busy, lib.Self)
	}
	if gfs.Busy != 5*ms || gfs.Self != 5*ms {
		t.Errorf("global-fs busy=%v self=%v, want 5ms/5ms", gfs.Busy, gfs.Self)
	}
	if top := prof.TopBusy(telemetry.ClassWrite); top != 10*ms {
		t.Errorf("top busy = %v, want 10ms (root span only)", top)
	}
}

// TestForkCoverageUnion checks the parent's child-coverage union when
// sim.Fork runs children concurrently: overlapping child intervals
// must not be double-counted against the parent's self time.
func TestForkCoverageUnion(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector()
	e.Spawn("req", func(p *sim.Proc) {
		r := Reader(p).SetCollector(col)
		r.PushOn(recAt(e, telemetry.LevelGlobalFS))
		// Two children overlap fully in [t, t+4ms) and one runs longer:
		// the union is 6ms, not the 10ms sum.
		sim.Fork(p, "xfer",
			func(c *sim.Proc) {
				cr := r.WithProc(c)
				cr.PushOn(recAt(e, telemetry.LevelNetwork))
				c.Sleep(4 * ms)
				cr.Pop()
			},
			func(c *sim.Proc) {
				cr := r.WithProc(c)
				cr.PushOn(recAt(e, telemetry.LevelDevice))
				c.Sleep(6 * ms)
				cr.Pop()
			},
		)
		r.Pop()
	})
	e.Run()
	prof := col.Profile()
	gfs := prof.Cell(telemetry.LevelGlobalFS, telemetry.ClassRead)
	if gfs.Busy != 6*ms || gfs.Self != 0 {
		t.Errorf("parent busy=%v self=%v, want 6ms/0 (children union covers it)", gfs.Busy, gfs.Self)
	}
	if n := prof.Cell(telemetry.LevelNetwork, telemetry.ClassRead).Self; n != 4*ms {
		t.Errorf("network self = %v, want 4ms", n)
	}
	if d := prof.Cell(telemetry.LevelDevice, telemetry.ClassRead).Self; d != 6*ms {
		t.Errorf("device self = %v, want 6ms", d)
	}
}

// TestRemoteAttribution checks that spans opened beneath a global-FS
// span carry the remote mark, and that CharacterizedSelf folds their
// self time into the network-FS group instead of local-FS.
func TestRemoteAttribution(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector()
	e.Spawn("req", func(p *sim.Proc) {
		r := Writer(p).SetCollector(col)
		// Local write: cache span with no global-FS ancestor.
		r.PushOn(recAt(e, telemetry.LevelLocalFS))
		r.PushOn(recAt(e, telemetry.LevelCache))
		p.Sleep(2 * ms)
		r.Pop()
		r.Pop()
		// Remote write: the same lower levels beneath an NFS span.
		r.PushOn(recAt(e, telemetry.LevelGlobalFS))
		r.PushOn(recAt(e, telemetry.LevelLocalFS))
		r.PushOn(recAt(e, telemetry.LevelCache))
		p.Sleep(3 * ms)
		r.Pop()
		r.Pop()
		r.Pop()
	})
	e.Run()
	prof := col.Profile()
	if got := prof.RemoteSelfAt(telemetry.LevelCache); got != 3*ms {
		t.Errorf("remote cache self = %v, want 3ms", got)
	}
	cs := prof.CharacterizedSelf()
	if cs[telemetry.LevelLocalFS] != 2*ms {
		t.Errorf("characterized local-fs self = %v, want 2ms (local path only)", cs[telemetry.LevelLocalFS])
	}
	if cs[telemetry.LevelGlobalFS] != 3*ms {
		t.Errorf("characterized global-fs self = %v, want 3ms (remote backend folds in)", cs[telemetry.LevelGlobalFS])
	}
}

// TestNilCollectorSafe checks the collectorless path: spans and tags
// on a request without a collector are discarded, not a crash.
func TestNilCollectorSafe(t *testing.T) {
	e := sim.NewEngine()
	e.Spawn("req", func(p *sim.Proc) {
		r := Meta(p)
		r.PushOn(recAt(e, telemetry.LevelLibrary))
		r.Tag("slow_disk")
		p.Sleep(ms)
		r.Pop()
	})
	e.Run()
}

// TestEnterObserveExit checks the recorder-bound span: the recorder
// receives exactly the class, ops and bytes passed, busy for the
// span's whole interval, even when the class is not the request's own
// (a write request's RAID-5 read-modify-write reads); the collector
// sees the same interval as a span at the recorder's level.
func TestEnterObserveExit(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector()
	rec := telemetry.NewRecorder(e, "array:a", telemetry.LevelBlock, 1)
	e.Spawn("req", func(p *sim.Proc) {
		r := Writer(p).SetCollector(col)
		p.Sleep(ms)
		r.Enter(rec)
		defer r.Exit()
		p.Sleep(3 * ms)
		r.Observe(telemetry.ClassRead, 2, 8192)
	})
	e.Run()
	c := rec.Snapshot().Counters
	if c.Read.Ops != 2 || c.Read.Bytes != 8192 || c.Read.Busy != 3*ms {
		t.Errorf("recorder read = %+v, want 2 ops, 8192 B, 3ms busy", c.Read)
	}
	if c.Write.Ops != 0 || c.Meta.Ops != 0 {
		t.Errorf("recorder write/meta ops = %d/%d, want 0/0", c.Write.Ops, c.Meta.Ops)
	}
	cell := col.Profile().Cell(telemetry.LevelBlock, telemetry.ClassWrite)
	if cell.Busy != 3*ms || cell.Self != 3*ms {
		t.Errorf("block span busy=%v self=%v, want 3ms/3ms", cell.Busy, cell.Self)
	}
}

// TestEnterGauge checks the queue-depth gauge: two forked children
// inside the component at once reach depth 2, and every Exit returns
// the gauge to 0.
func TestEnterGauge(t *testing.T) {
	e := sim.NewEngine()
	rec := telemetry.NewRecorder(e, "disk:d", telemetry.LevelDevice, 1)
	e.Spawn("req", func(p *sim.Proc) {
		r := Reader(p)
		child := func(d sim.Duration) func(*sim.Proc) {
			return func(c *sim.Proc) {
				cr := r.WithProc(c)
				cr.Enter(rec)
				defer cr.Exit()
				c.Sleep(d)
			}
		}
		sim.Fork(p, "xfer", child(2*ms), child(4*ms))
	})
	e.Run()
	c := rec.Snapshot().Counters
	if c.QueueDepth != 0 || c.MaxQueueDepth != 2 {
		t.Errorf("queue depth=%d max=%d, want 0/2", c.QueueDepth, c.MaxQueueDepth)
	}
}

// TestEnterNilCollector checks that a request without a collector
// still records on the span's recorder.
func TestEnterNilCollector(t *testing.T) {
	e := sim.NewEngine()
	rec := telemetry.NewRecorder(e, "net:n", telemetry.LevelNetwork, 1)
	e.Spawn("req", func(p *sim.Proc) {
		r := Meta(p)
		r.Enter(rec)
		p.Sleep(ms)
		r.Observe(telemetry.ClassWrite, 1, 512)
		r.Exit()
	})
	e.Run()
	if w := rec.Snapshot().Counters.Write; w.Ops != 1 || w.Bytes != 512 || w.Busy != ms {
		t.Errorf("recorder write = %+v, want 1 op, 512 B, 1ms busy", w)
	}
}

// TestObserveOnPushedSpan checks that Observe on a gauge-free span
// records on that span's recorder over the span's interval and leaves
// the queue-depth gauge alone.
func TestObserveOnPushedSpan(t *testing.T) {
	e := sim.NewEngine()
	rec := recAt(e, telemetry.LevelCache)
	e.Spawn("req", func(p *sim.Proc) {
		r := Meta(p)
		p.Sleep(ms)
		r.PushOn(rec)
		defer r.Pop()
		defer r.Observe(telemetry.ClassMeta, 1, 0)
		p.Sleep(2 * ms)
	})
	e.Run()
	c := rec.Snapshot().Counters
	if c.Meta.Ops != 1 || c.Meta.Busy != 2*ms {
		t.Errorf("recorder meta = %+v, want 1 op, 2ms busy", c.Meta)
	}
	if c.QueueDepth != 0 || c.MaxQueueDepth != 0 {
		t.Errorf("queue depth=%d max=%d, want 0/0 on a gauge-free span", c.QueueDepth, c.MaxQueueDepth)
	}
}

// TestExitOnPushedSpanPanics pins that Exit needs a span opened by
// Enter: on a gauge-free span it would drive the gauge negative.
func TestExitOnPushedSpanPanics(t *testing.T) {
	e := sim.NewEngine()
	e.Spawn("req", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Exit on a pushed span did not panic")
			}
		}()
		r := Reader(p)
		r.PushOn(recAt(e, telemetry.LevelCache))
		r.Exit()
	})
	e.Run()
}

// TestPushOwnRecorder checks the level-and-name form of Push: each
// span lands in the collector at the given level.
func TestPushOwnRecorder(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector()
	e.Spawn("req", func(p *sim.Proc) {
		r := Reader(p).SetCollector(col)
		for i := 0; i < 3; i++ {
			r.Push(telemetry.LevelCache, "probe")
			r.Pop()
		}
	})
	e.Run()
	if n := col.Profile().Cell(telemetry.LevelCache, telemetry.ClassRead).Spans; n != 3 {
		t.Errorf("collector holds %d cache spans, want 3", n)
	}
}

// TestSpanSize pins the span at one 48-byte allocation: every layer
// boundary allocates one, so a larger span shows in the benchmark's
// allocated bytes.
func TestSpanSize(t *testing.T) {
	if n := unsafe.Sizeof(span{}); n > 48 {
		t.Errorf("span is %d bytes, want <= 48", n)
	}
}

// TestPopWithoutPushPanics pins the stack-discipline guard.
func TestPopWithoutPushPanics(t *testing.T) {
	e := sim.NewEngine()
	e.Spawn("req", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Pop on an empty span stack did not panic")
			}
		}()
		Reader(p).Pop()
	})
	e.Run()
}

// TestRequestStamps checks the constructor chain carries the
// operation class, and that WithProc views keep it.
func TestRequestStamps(t *testing.T) {
	e := sim.NewEngine()
	e.Spawn("req", func(p *sim.Proc) {
		r := New(p, telemetry.ClassWrite)
		if r.Class() != telemetry.ClassWrite {
			t.Errorf("class=%v, want write", r.Class())
		}
		if v := r.WithProc(p); v.Class() != telemetry.ClassWrite {
			t.Errorf("view class=%v, want write", v.Class())
		}
		if m := Meta(p); m.Class() != telemetry.ClassMeta {
			t.Errorf("meta class=%v, want meta", m.Class())
		}
	})
	e.Run()
}

// newSink keeps TestNewAllocs' requests reachable, so escape analysis
// cannot move them to the stack and hide their allocation.
var newSink *Request

// TestNewAllocs pins the request constructor on the hot path to one
// allocation: the Request itself.
func TestNewAllocs(t *testing.T) {
	e := sim.NewEngine()
	var allocs float64
	e.Spawn("req", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(1000, func() { newSink = New(p, telemetry.ClassRead) })
	})
	e.Run()
	if allocs > 1 {
		t.Errorf("New allocates %.1f objects per call, want <= 1", allocs)
	}
}

// TestVecOps checks the shared vector bookkeeping: Total, Sort, and
// Merge's (and the AppendMerged fold's) coalescing of overlapping and
// touching extents.
func TestVecOps(t *testing.T) {
	vecs := []Vec{{Off: 30, Len: 10}, {Off: 0, Len: 10}, {Off: 8, Len: 4}, {Off: 12, Len: 3}}
	if n := Total(vecs); n != 27 {
		t.Errorf("Total = %d, want 27", n)
	}
	Sort(vecs)
	for i := 1; i < len(vecs); i++ {
		if vecs[i].Off < vecs[i-1].Off {
			t.Fatalf("not sorted at %d: %+v", i, vecs)
		}
	}
	var folded []Vec
	for _, v := range vecs {
		folded = AppendMerged(folded, v)
	}
	merged := Merge(vecs)
	want := []Vec{{Off: 0, Len: 15}, {Off: 30, Len: 10}}
	if len(merged) != len(want) {
		t.Fatalf("Merge = %+v, want %+v", merged, want)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Errorf("Merge[%d] = %+v, want %+v", i, merged[i], want[i])
		}
	}
	if len(folded) != len(want) || folded[0] != want[0] || folded[1] != want[1] {
		t.Errorf("AppendMerged fold = %+v, want %+v", folded, want)
	}
}
