package ioreq

import (
	"testing"

	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

const ms = 1000 * sim.Microsecond

// TestSpanSelfTime checks the self-time arithmetic on a simple nest:
// a parent span whose child covers part of its interval attributes
// only the uncovered remainder to itself.
func TestSpanSelfTime(t *testing.T) {
	e := sim.NewEngine()
	col := NewCollector()
	e.Spawn("req", func(p *sim.Proc) {
		r := Writer(p).SetCollector(col)
		r.Push(telemetry.LevelLibrary, "lib")
		p.Sleep(2 * ms)
		r.Push(telemetry.LevelGlobalFS, "gfs")
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
		r.Push(telemetry.LevelGlobalFS, "gfs")
		// Two children overlap fully in [t, t+4ms) and one runs longer:
		// the union is 6ms, not the 10ms sum.
		sim.Fork(p, "xfer",
			func(c *sim.Proc) {
				cr := r.WithProc(c)
				cr.Push(telemetry.LevelNetwork, "net")
				c.Sleep(4 * ms)
				cr.Pop()
			},
			func(c *sim.Proc) {
				cr := r.WithProc(c)
				cr.Push(telemetry.LevelDevice, "disk")
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
		r.Push(telemetry.LevelLocalFS, "local")
		r.Push(telemetry.LevelCache, "page")
		p.Sleep(2 * ms)
		r.Pop()
		r.Pop()
		// Remote write: the same lower levels beneath an NFS span.
		r.Push(telemetry.LevelGlobalFS, "nfs")
		r.Push(telemetry.LevelLocalFS, "backend")
		r.Push(telemetry.LevelCache, "page")
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
		r.Push(telemetry.LevelLibrary, "lib")
		r.Tag("slow_disk")
		p.Sleep(ms)
		r.Pop()
	})
	e.Run()
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

// TestRequestStamps checks the constructor chain carries op, pattern,
// origin, and defaults.
func TestRequestStamps(t *testing.T) {
	e := sim.NewEngine()
	e.Spawn("req", func(p *sim.Proc) {
		r := New(p, OpWrite).SetPattern(ModeStrided, 4096).SetOrigin(3, 7)
		if r.Op() != OpWrite || r.Class() != telemetry.ClassWrite {
			t.Errorf("op=%v class=%v, want write/write", r.Op(), r.Class())
		}
		if r.Mode() != ModeStrided || r.Block() != 4096 {
			t.Errorf("mode=%v block=%d, want strided/4096", r.Mode(), r.Block())
		}
		if r.Rank() != 3 || r.Phase() != 7 {
			t.Errorf("rank=%d phase=%d, want 3/7", r.Rank(), r.Phase())
		}
		if d := Reader(p); d.Rank() != -1 || d.Phase() != -1 {
			t.Errorf("default rank=%d phase=%d, want -1/-1", d.Rank(), d.Phase())
		}
	})
	e.Run()
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
