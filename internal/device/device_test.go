package device

import (
	"testing"
	"testing/quick"

	"ioeval/internal/ioreq"
	"ioeval/internal/racebuild"
	"ioeval/internal/sim"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

func newTestDisk(e *sim.Engine) *Disk {
	return NewDisk(e, DefaultSATA("d0", 150*gb, 100e6)) // 100 MB/s media
}

func TestSequentialReadRate(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDisk(e)
	total := int64(256 * mb)
	var elapsed sim.Duration
	e.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		for off := int64(0); off < total; off += 4 * mb {
			d.ReadAt(ioreq.Reader(p), off, 4*mb)
		}
		elapsed = sim.Duration(p.Now() - t0)
	})
	e.Run()
	rate := float64(total) / elapsed.Seconds() / 1e6 // MB/s
	// Sequential big-block reads should approach the 100 MB/s media rate;
	// only the first op pays positioning.
	if rate < 90 || rate > 101 {
		t.Fatalf("sequential read rate = %.1f MB/s, want ~100", rate)
	}
}

func TestRandomSmallReadsAreSlow(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDisk(e)
	n := 100
	var elapsed sim.Duration
	e.Spawn("reader", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < n; i++ {
			// Jump around the disk: 1 GB stride defeats sequential detection.
			d.ReadAt(ioreq.Reader(p), int64(i)*gb, 4*kb)
		}
		elapsed = sim.Duration(p.Now() - t0)
	})
	e.Run()
	perOp := elapsed / sim.Duration(n)
	// Each op pays avg seek (8.5 ms) + rot latency (4.17 ms) + overhead.
	if perOp < 12*sim.Millisecond || perOp > 14*sim.Millisecond {
		t.Fatalf("random 4K read = %v per op, want ~12.8ms", perOp)
	}
	if got := d.Telemetry().AuxVal("random_ops"); got != int64(n) {
		t.Fatalf("random_ops = %d, want %d", got, n)
	}
}

func TestWriteCacheSkipsRotationalLatency(t *testing.T) {
	e := sim.NewEngine()
	params := DefaultSATA("wc", 150*gb, 100e6)
	d := NewDisk(e, params)

	paramsNC := params
	paramsNC.Name = "nc"
	paramsNC.WriteCache = false
	dn := NewDisk(e, paramsNC)

	var tWC, tNC sim.Duration
	e.Spawn("w", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 50; i++ {
			d.WriteAt(ioreq.Writer(p), int64(i)*gb, 4*kb)
		}
		tWC = sim.Duration(p.Now() - t0)
		t0 = p.Now()
		for i := 0; i < 50; i++ {
			dn.WriteAt(ioreq.Writer(p), int64(i)*gb, 4*kb)
		}
		tNC = sim.Duration(p.Now() - t0)
	})
	e.Run()
	if tWC >= tNC {
		t.Fatalf("write-back cache (%v) not faster than write-through (%v)", tWC, tNC)
	}
	// The difference per op should be one rotational latency (~4.17 ms).
	diff := (tNC - tWC) / 50
	if diff < 4*sim.Millisecond || diff > 4400*sim.Microsecond {
		t.Fatalf("per-op cache benefit = %v, want ~4.17ms", diff)
	}
}

func TestSequentialDetection(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDisk(e)
	e.Spawn("r", func(p *sim.Proc) {
		d.ReadAt(ioreq.Reader(p), 0, mb)      // random (first op)
		d.ReadAt(ioreq.Reader(p), mb, mb)     // sequential
		d.ReadAt(ioreq.Reader(p), 2*mb, mb)   // sequential
		d.ReadAt(ioreq.Reader(p), 100*mb, mb) // random
	})
	e.Run()
	if seq, random := d.Telemetry().AuxVal("seq_ops"), d.Telemetry().AuxVal("random_ops"); seq != 2 || random != 2 {
		t.Fatalf("seq=%d random=%d, want 2/2", seq, random)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDisk(e)
	e.Spawn("r", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for out-of-range read")
			}
		}()
		d.ReadAt(ioreq.Reader(p), d.Capacity(), 1)
	})
	e.Run()
}

func TestDiskSerializesConcurrentRequests(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDisk(e)
	var ends []sim.Time
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn("r", func(p *sim.Proc) {
			d.ReadAt(ioreq.Reader(p), int64(i)*10*gb, 100*mb)
			ends = append(ends, p.Now())
		})
	}
	e.Run()
	// 100 MB at 100 MB/s = 1 s per request plus positioning; four
	// serialized requests ⇒ last finishes after ≥ 4 s.
	last := ends[len(ends)-1]
	if last < sim.Time(4*sim.Second) {
		t.Fatalf("last request finished at %v, expected ≥4s (serialization)", last)
	}
}

func TestFlushClearsDirty(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDisk(e)
	e.Spawn("w", func(p *sim.Proc) {
		d.WriteAt(ioreq.Writer(p), 0, mb)
		if d.dirty != mb {
			t.Errorf("dirty = %d after write, want %d", d.dirty, mb)
		}
		before := p.Now()
		d.Flush(ioreq.Meta(p))
		if d.dirty != 0 {
			t.Errorf("dirty = %d after flush, want 0", d.dirty)
		}
		if p.Now() == before {
			t.Error("flush with dirty data took zero time")
		}
		before = p.Now()
		d.Flush(ioreq.Meta(p)) // idempotent, free when clean
		if p.Now() != before {
			t.Error("flush with clean cache should be free")
		}
	})
	e.Run()
}

func TestStatsAccounting(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDisk(e)
	e.Spawn("rw", func(p *sim.Proc) {
		d.ReadAt(ioreq.Reader(p), 0, 2*mb)
		d.WriteAt(ioreq.Writer(p), 10*gb, 3*mb)
	})
	e.Run()
	c := d.Telemetry().Snapshot().Counters
	if c.Read.Ops != 1 || c.Read.Bytes != 2*mb {
		t.Fatalf("read counters: %d ops, %d bytes", c.Read.Ops, c.Read.Bytes)
	}
	if c.Write.Ops != 1 || c.Write.Bytes != 3*mb {
		t.Fatalf("write counters: %d ops, %d bytes", c.Write.Ops, c.Write.Bytes)
	}
}

// Property: a sequential transfer of n bytes never completes faster
// than the media rate allows, and service time grows monotonically
// with size.
func TestQuickTransferTimeMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint32) bool {
		a := int64(aRaw%1024+1) * 4 * kb
		b := int64(bRaw%1024+1) * 4 * kb
		if a > b {
			a, b = b, a
		}
		timeFor := func(n int64) sim.Duration {
			e := sim.NewEngine()
			d := newTestDisk(e)
			var dur sim.Duration
			e.Spawn("r", func(p *sim.Proc) {
				t0 := p.Now()
				d.ReadAt(ioreq.Reader(p), 0, n)
				dur = sim.Duration(p.Now() - t0)
			})
			e.Run()
			return dur
		}
		ta, tb := timeFor(a), timeFor(b)
		minA := sim.Duration(float64(a) / 100e6 * 1e9)
		return ta >= minA && (a == b || tb >= ta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDiskOp(b *testing.B) {
	e := sim.NewEngine()
	d := newTestDisk(e)
	e.Spawn("r", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			d.ReadAt(ioreq.Reader(p), int64(i%1000)*mb, 64*kb)
		}
	})
	b.ResetTimer()
	e.Run()
}

// An uncontended ReadAt allocates nothing: its span is bound to the
// disk's recorder, so no label is built per request, and comes from
// the span pool. The spawn that drives the reads adds about 10
// allocations per run. A race build allows one per read, since its
// pool drops a quarter of the spans it is given.
func TestReadAtAllocs(t *testing.T) {
	const reads = 10000
	e := sim.NewEngine()
	d := newTestDisk(e)
	run := func() {
		e.Spawn("r", func(p *sim.Proc) {
			r := ioreq.Reader(p)
			for i := int64(0); i < reads; i++ {
				d.ReadAt(r, i*64*kb, 64*kb)
			}
		})
		e.Run()
	}
	limit := 0.05
	if racebuild.Enabled {
		limit = 1.05
	}
	if per := testing.AllocsPerRun(5, run) / reads; per > limit {
		t.Fatalf("%.3f allocs per ReadAt, want <= %.2f", per, limit)
	}
}
