package cache

import (
	"testing"
	"testing/quick"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

func newStack(e *sim.Engine, cacheBytes int64) (*Cache, *device.Disk) {
	d := device.NewDisk(e, device.DefaultSATA("d", 150*gb, 100e6))
	c := New(e, DefaultParams("pc", cacheBytes), d)
	return c, d
}

func run(e *sim.Engine, fn func(*sim.Proc)) sim.Duration {
	var dur sim.Duration
	e.Spawn("t", func(p *sim.Proc) {
		t0 := p.Now()
		fn(p)
		dur = sim.Duration(p.Now() - t0)
	})
	e.Run()
	return dur
}

func TestReadHitMuchFasterThanMiss(t *testing.T) {
	e := sim.NewEngine()
	c, _ := newStack(e, 256*mb)
	var tMiss, tHit sim.Duration
	e.Spawn("r", func(p *sim.Proc) {
		t0 := p.Now()
		c.ReadAt(ioreq.Reader(p), 0, 16*mb)
		tMiss = sim.Duration(p.Now() - t0)
		t0 = p.Now()
		c.ReadAt(ioreq.Reader(p), 0, 16*mb)
		tHit = sim.Duration(p.Now() - t0)
	})
	e.Run()
	if tHit*5 > tMiss {
		t.Fatalf("hit (%v) not ≫ faster than miss (%v)", tHit, tMiss)
	}
	if c.Stats.HitBytes < 16*mb {
		t.Fatalf("HitBytes = %d, want ≥16MB", c.Stats.HitBytes)
	}
}

func TestWriteBackDefersDeviceWrite(t *testing.T) {
	e := sim.NewEngine()
	c, d := newStack(e, 256*mb)
	run(e, func(p *sim.Proc) {
		c.WriteAt(ioreq.Writer(p), 0, 8*mb) // well under dirty threshold
		if d.Stats.BytesWritten != 0 {
			t.Errorf("device saw %d bytes before flush", d.Stats.BytesWritten)
		}
		if c.DirtyBytes() != 8*mb {
			t.Errorf("dirty = %d, want 8MB", c.DirtyBytes())
		}
		c.Flush(ioreq.Meta(p))
		if d.Stats.BytesWritten != 8*mb {
			t.Errorf("device wrote %d after flush, want 8MB", d.Stats.BytesWritten)
		}
		if c.DirtyBytes() != 0 {
			t.Errorf("dirty = %d after flush", c.DirtyBytes())
		}
	})
}

func TestWriteThroughHitsDeviceImmediately(t *testing.T) {
	e := sim.NewEngine()
	d := device.NewDisk(e, device.DefaultSATA("d", 150*gb, 100e6))
	params := DefaultParams("pc", 256*mb)
	params.Policy = WriteThrough
	c := New(e, params, d)
	run(e, func(p *sim.Proc) {
		c.WriteAt(ioreq.Writer(p), 0, 4*mb)
		if d.Stats.BytesWritten != 4*mb {
			t.Errorf("write-through device bytes = %d, want 4MB", d.Stats.BytesWritten)
		}
		if c.DirtyBytes() != 0 {
			t.Errorf("write-through left dirty pages: %d", c.DirtyBytes())
		}
	})
}

func TestDirtyThrottling(t *testing.T) {
	e := sim.NewEngine()
	c, d := newStack(e, 64*mb) // threshold = 12.8 MB dirty
	run(e, func(p *sim.Proc) {
		for off := int64(0); off < 40*mb; off += mb {
			c.WriteAt(ioreq.Writer(p), off, mb)
		}
	})
	if c.Stats.ThrottleStalls == 0 {
		t.Fatal("no throttle stalls despite writing 40MB through a 64MB cache")
	}
	if d.Stats.BytesWritten == 0 {
		t.Fatal("throttling produced no device write-back")
	}
	limit := int64(0.20 * float64(c.Params().Capacity))
	if c.DirtyBytes() > limit {
		t.Fatalf("dirty %d exceeds limit %d after throttled writes", c.DirtyBytes(), limit)
	}
}

func TestLRUEviction(t *testing.T) {
	e := sim.NewEngine()
	c, _ := newStack(e, 16*mb)
	run(e, func(p *sim.Proc) {
		c.ReadAt(ioreq.Reader(p), 0, 8*mb) // A
		c.ReadAt(ioreq.Reader(p), gb, 16*mb)
		// A must have been evicted; re-reading it must miss.
		miss0 := c.Stats.MissBytes
		c.ReadAt(ioreq.Reader(p), 0, 8*mb)
		if c.Stats.MissBytes-miss0 < 8*mb {
			t.Errorf("expected full miss on evicted range, got %d new miss bytes",
				c.Stats.MissBytes-miss0)
		}
	})
	if c.Stats.Evictions == 0 {
		t.Fatal("no evictions despite exceeding capacity")
	}
	if c.CachedBytes() > 16*mb {
		t.Fatalf("resident %d exceeds capacity", c.CachedBytes())
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	e := sim.NewEngine()
	d := device.NewDisk(e, device.DefaultSATA("d", 150*gb, 100e6))
	params := DefaultParams("pc", 16*mb)
	params.DirtyRatio = 2.0 // disable throttling; force evictions to do the cleaning
	c := New(e, params, d)
	run(e, func(p *sim.Proc) {
		for off := int64(0); off < 64*mb; off += mb {
			c.WriteAt(ioreq.Writer(p), off, mb)
		}
	})
	if c.Stats.DirtyEvict == 0 {
		t.Fatal("no dirty evictions")
	}
	if d.Stats.BytesWritten == 0 {
		t.Fatal("dirty evictions never reached the device")
	}
}

func TestFileLargerThanCacheThrashes(t *testing.T) {
	// The paper's characterization rule: file size = 2× RAM defeats the
	// cache; a second sequential pass must still miss everywhere.
	e := sim.NewEngine()
	c, _ := newStack(e, 128*mb)
	run(e, func(p *sim.Proc) {
		for pass := 0; pass < 2; pass++ {
			for off := int64(0); off < 256*mb; off += 4 * mb {
				c.ReadAt(ioreq.Reader(p), off, 4*mb)
			}
		}
	})
	hitFrac := float64(c.Stats.HitBytes) / float64(c.Stats.HitBytes+c.Stats.MissBytes)
	if hitFrac > 0.30 {
		t.Fatalf("hit fraction %.2f on a 2×cache file, want low (LRU thrash)", hitFrac)
	}
}

func TestFileSmallerThanCacheGetsCached(t *testing.T) {
	e := sim.NewEngine()
	c, _ := newStack(e, 256*mb)
	run(e, func(p *sim.Proc) {
		for pass := 0; pass < 4; pass++ {
			for off := int64(0); off < 64*mb; off += 4 * mb {
				c.ReadAt(ioreq.Reader(p), off, 4*mb)
			}
		}
	})
	hitFrac := float64(c.Stats.HitBytes) / float64(c.Stats.HitBytes+c.Stats.MissBytes)
	if hitFrac < 0.70 {
		t.Fatalf("hit fraction %.2f on in-cache file, want ≥0.70", hitFrac)
	}
}

func TestReadAhead(t *testing.T) {
	e := sim.NewEngine()
	c, _ := newStack(e, 256*mb)
	run(e, func(p *sim.Proc) {
		c.ReadAt(ioreq.Reader(p), 0, 64*kb)
		// The next sequential read should be partially or fully absorbed
		// by the read-ahead window (512 KB).
		m0 := c.Stats.MissBytes
		c.ReadAt(ioreq.Reader(p), 64*kb, 256*kb)
		if c.Stats.MissBytes != m0 {
			t.Errorf("sequential read after read-ahead missed %d bytes", c.Stats.MissBytes-m0)
		}
	})
	if c.Stats.ReadAheadBytes == 0 {
		t.Fatal("read-ahead never triggered")
	}
}

func TestDropCaches(t *testing.T) {
	e := sim.NewEngine()
	c, _ := newStack(e, 256*mb)
	run(e, func(p *sim.Proc) {
		c.WriteAt(ioreq.Writer(p), 0, 8*mb)
		c.ReadAt(ioreq.Reader(p), 16*mb, 8*mb)
		c.DropCaches(ioreq.Meta(p))
		if c.CachedBytes() != 0 || c.DirtyBytes() != 0 {
			t.Errorf("DropCaches left %d cached / %d dirty", c.CachedBytes(), c.DirtyBytes())
		}
		m0 := c.Stats.MissBytes
		c.ReadAt(ioreq.Reader(p), 0, 8*mb)
		if c.Stats.MissBytes-m0 < 8*mb {
			t.Error("read after DropCaches did not miss")
		}
	})
}

func TestBadParamsPanic(t *testing.T) {
	e := sim.NewEngine()
	d := device.NewDisk(e, device.DefaultSATA("d", gb, 100e6))
	for name, params := range map[string]Params{
		"pagesize-not-pow2": {Name: "x", Capacity: mb, PageSize: 3000, MemRate: 1e9},
		"tiny-capacity":     {Name: "x", Capacity: 1, PageSize: 4 * kb, MemRate: 1e9},
		"zero-memrate":      {Name: "x", Capacity: mb, PageSize: 4 * kb},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(e, params, d)
		}()
	}
}

// Property: after any sequence of writes followed by Flush, dirty
// bytes are zero and the device received at least the distinct page
// span written.
func TestQuickFlushCleansEverything(t *testing.T) {
	f := func(offs []uint16) bool {
		e := sim.NewEngine()
		c, _ := newStack(e, 32*mb)
		ok := true
		e.Spawn("w", func(p *sim.Proc) {
			for _, o := range offs {
				c.WriteAt(ioreq.Writer(p), int64(o)*4*kb, 4*kb)
			}
			c.Flush(ioreq.Meta(p))
			if c.DirtyBytes() != 0 {
				ok = false
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: resident bytes never exceed capacity after arbitrary
// read/write traffic.
func TestQuickResidencyBound(t *testing.T) {
	f := func(ops []uint32) bool {
		e := sim.NewEngine()
		c, _ := newStack(e, 8*mb)
		ok := true
		e.Spawn("rw", func(p *sim.Proc) {
			for _, op := range ops {
				off := int64(op%2048) * 16 * kb
				if op&1 == 0 {
					c.ReadAt(ioreq.Reader(p), off, 16*kb)
				} else {
					c.WriteAt(ioreq.Writer(p), off, 16*kb)
				}
				if c.CachedBytes() > 8*mb+c.Params().ReadAhead {
					ok = false
				}
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// nullDev charges a fixed service time per call and records nothing.
type nullDev struct{ capacity int64 }

func (d nullDev) ReadAt(r *ioreq.Request, off, n int64)  { r.Proc().Sleep(sim.Microsecond) }
func (d nullDev) WriteAt(r *ioreq.Request, off, n int64) { r.Proc().Sleep(sim.Microsecond) }
func (d nullDev) Flush(r *ioreq.Request)                 {}
func (d nullDev) Capacity() int64                        { return d.capacity }
func (d nullDev) Name() string                           { return "null" }

// A read that evicts allocates per request, not per page: evicted
// pages are recycled into the inserted ones, so a 16 MiB read through
// a full cache costs no more allocations than a 1 MiB one.
func TestEvictingReadAllocsPerRequest(t *testing.T) {
	allocs := func(size int64) float64 {
		e := sim.NewEngine()
		c := New(e, DefaultParams("pc", 8*mb), nullDev{capacity: 64 * gb})
		off := int64(0)
		read := func() {
			e.Spawn("r", func(p *sim.Proc) { c.ReadAt(ioreq.Reader(p), off, size) })
			e.Run()
			off += size + mb // never sequential: no read-ahead
		}
		for off < 32*mb {
			read() // fill the cache, then keep it full
		}
		return testing.AllocsPerRun(50, read)
	}
	small, large := allocs(1*mb), allocs(16*mb)
	if large > small+4 {
		t.Fatalf("evicting 16 MiB read: %.1f allocs, 1 MiB read: %.1f; want per-request, not per-page", large, small)
	}
}

func BenchmarkCachedRead(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	c, _ := newStack(e, 256*mb)
	e.Spawn("r", func(p *sim.Proc) {
		c.ReadAt(ioreq.Reader(p), 0, 64*mb)
		for i := 0; i < b.N; i++ {
			c.ReadAt(ioreq.Reader(p), int64(i%16)*4*mb, 4*mb)
		}
	})
	b.ResetTimer()
	e.Run()
}
