package cache

import (
	"slices"
	"testing"
	"testing/quick"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

func TestReadRunsHitMissAccounting(t *testing.T) {
	e := sim.NewEngine()
	c, d := newStack(e, 256*mb)
	run(e, func(p *sim.Proc) {
		// Populate the first 8 MB, then read a vec half inside.
		c.ReadAt(ioreq.Reader(p), 0, 8*mb)
		m0, h0 := c.Stats.MissBytes, c.Stats.HitBytes
		c.ReadRuns(ioreq.Reader(p), []device.Run{
			{Off: 0, Len: 4 * mb},        // hit
			{Off: 64 * mb, Len: 4 * mb},  // miss
			{Off: 128 * mb, Len: 2 * mb}, // miss
		})
		if c.Stats.HitBytes-h0 != 4*mb {
			t.Errorf("hit bytes = %d", c.Stats.HitBytes-h0)
		}
		if c.Stats.MissBytes-m0 != 6*mb {
			t.Errorf("miss bytes = %d", c.Stats.MissBytes-m0)
		}
	})
	if got := d.Telemetry().Snapshot().Counters.Read.Bytes; got < 14*mb {
		t.Fatalf("device read %d", got)
	}
}

func TestReadRunsMergesAdjacentMisses(t *testing.T) {
	e := sim.NewEngine()
	c, d := newStack(e, 256*mb)
	run(e, func(p *sim.Proc) {
		// 64 contiguous small runs: the device must see few large reads,
		// not 64 small ones.
		var runs []device.Run
		for i := int64(0); i < 64; i++ {
			runs = append(runs, device.Run{Off: i * 64 * kb, Len: 64 * kb})
		}
		c.ReadRuns(ioreq.Reader(p), runs)
	})
	if got := d.Telemetry().Snapshot().Counters.Read.Ops; got > 2 {
		t.Fatalf("device ops = %d, want merged (≤2)", got)
	}
}

func TestWriteRunsDirtiesAndThrottles(t *testing.T) {
	e := sim.NewEngine()
	c, d := newStack(e, 64*mb)
	run(e, func(p *sim.Proc) {
		var runs []device.Run
		for i := int64(0); i < 512; i++ {
			runs = append(runs, device.Run{Off: i * 64 * kb, Len: 64 * kb}) // 32 MB
		}
		c.WriteRuns(ioreq.Writer(p), runs)
	})
	if c.Stats.WriteOps != 512 {
		t.Fatalf("write ops = %d", c.Stats.WriteOps)
	}
	// 32 MB dirtied through a 64 MB cache (12.8 MB dirty limit): the
	// throttle must have pushed data to the device.
	if d.Telemetry().Snapshot().Counters.Write.Bytes == 0 {
		t.Fatal("no throttled write-back")
	}
}

func TestWriteRunsWriteThrough(t *testing.T) {
	e := sim.NewEngine()
	d := device.NewDisk(e, device.DefaultSATA("d", 150*gb, 100e6))
	params := DefaultParams("pc", 64*mb)
	params.Policy = WriteThrough
	c := New(e, params, d)
	run(e, func(p *sim.Proc) {
		c.WriteRuns(ioreq.Writer(p), []device.Run{{Off: 0, Len: mb}, {Off: mb, Len: mb}})
	})
	if got := d.Telemetry().Snapshot().Counters.Write.Bytes; got != 2*mb {
		t.Fatalf("write-through device bytes = %d", got)
	}
	if c.DirtyBytes() != 0 {
		t.Fatal("write-through left dirty pages")
	}
}

func TestInvalidateRange(t *testing.T) {
	e := sim.NewEngine()
	c, _ := newStack(e, 256*mb)
	run(e, func(p *sim.Proc) {
		c.WriteAt(ioreq.Writer(p), 0, 8*mb)
		c.ReadAt(ioreq.Reader(p), 16*mb, 8*mb)
		c.InvalidateRange(0, 8*mb) // drops the dirty range too
		if c.DirtyBytes() != 0 {
			t.Errorf("dirty after invalidate = %d", c.DirtyBytes())
		}
		m0 := c.Stats.MissBytes
		c.ReadAt(ioreq.Reader(p), 0, 8*mb)
		if c.Stats.MissBytes-m0 < 8*mb {
			t.Error("invalidated range still resident")
		}
		// The other range must still be cached.
		m0 = c.Stats.MissBytes
		c.ReadAt(ioreq.Reader(p), 16*mb, 8*mb)
		if c.Stats.MissBytes != m0 {
			t.Error("untouched range was invalidated")
		}
	})
}

// InvalidateRange drops exactly the pages holding a byte of
// [off, off+n), across chunk boundaries too; an empty or negative
// range drops nothing.
func TestInvalidateRangeBounds(t *testing.T) {
	const ps, resident = 64 * kb, 130 // pages
	for _, tc := range []struct {
		name     string
		off, n   int64
		from, to int64 // the pages dropped
	}{
		{"empty unaligned", ps + 100, 0, 0, 0},
		{"negative", ps + 100, -ps, 0, 0},
		{"one byte", ps + 100, 1, 1, 2},
		{"straddles two pages", 2*ps - 1, 2, 1, 3},
		{"crosses a chunk", 63 * ps, 2 * ps, 63, 65},
		{"whole slot", 0, 1 << 40, 0, resident},
	} {
		e := sim.NewEngine()
		c, _ := newStack(e, 256*mb)
		run(e, func(p *sim.Proc) { c.Populate(ioreq.Writer(p), 0, resident*ps) })
		c.InvalidateRange(tc.off, tc.n)
		for idx := int64(0); idx < resident; idx++ {
			if dropped := c.find(idx) == nil; dropped != (idx >= tc.from && idx < tc.to) {
				t.Errorf("%s: page %d dropped = %v", tc.name, idx, dropped)
			}
		}
		if want := (resident - (tc.to - tc.from)) * ps; c.CachedBytes() != want {
			t.Errorf("%s: %d bytes cached, want %d", tc.name, c.CachedBytes(), want)
		}
	}
}

func TestPopulate(t *testing.T) {
	e := sim.NewEngine()
	c, d := newStack(e, 256*mb)
	run(e, func(p *sim.Proc) {
		before := p.Now()
		c.Populate(ioreq.Writer(p), 0, 8*mb)
		if p.Now() != before {
			t.Error("populate must be free of simulated time")
		}
		m0 := c.Stats.MissBytes
		c.ReadAt(ioreq.Reader(p), 0, 8*mb)
		if c.Stats.MissBytes != m0 {
			t.Error("populated range missed")
		}
	})
	if got := d.Telemetry().Snapshot().Counters.Read.Bytes; got != 0 {
		t.Fatalf("populate touched the device: %d", got)
	}
}

func TestAccessors(t *testing.T) {
	e := sim.NewEngine()
	c, d := newStack(e, 64*mb)
	if c.Name() != "pc" || c.Under() != device.BlockDev(d) || c.Capacity() != d.Capacity() {
		t.Fatal("accessors broken")
	}
	if WriteBack.String() != "write-back" || WriteThrough.String() != "write-through" {
		t.Fatal("policy strings")
	}
}

// Property: ReadRuns over arbitrary run lists counts every requested
// byte exactly once as hit or miss.
func TestQuickReadRunsAccounting(t *testing.T) {
	f := func(raw []uint16) bool {
		e := sim.NewEngine()
		c, _ := newStack(e, 32*mb)
		ok := true
		e.Spawn("t", func(p *sim.Proc) {
			var runs []device.Run
			var total int64
			off := int64(0)
			for _, v := range raw {
				off += int64(v % 4096)
				l := int64(v)%(128*kb) + 1
				runs = append(runs, device.Run{Off: off, Len: l})
				off += l
				total += l
			}
			if len(runs) == 0 {
				return
			}
			c.ReadRuns(ioreq.Reader(p), runs)
			if c.Stats.HitBytes+c.Stats.MissBytes != total {
				ok = false
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// procDev is a lower device that records, per calling process, every
// extent it serves, and takes a millisecond for each.
type procDev struct {
	log map[string][]device.Run
}

func (d *procDev) record(r *ioreq.Request, off, n int64) {
	name := r.Proc().Name()
	d.log[name] = append(d.log[name], device.Run{Off: off, Len: n})
	r.Proc().Sleep(sim.Millisecond)
}

func (d *procDev) ReadAt(r *ioreq.Request, off, n int64)  { d.record(r, off, n) }
func (d *procDev) WriteAt(r *ioreq.Request, off, n int64) { d.record(r, off, n) }
func (d *procDev) Flush(*ioreq.Request)                   {}
func (d *procDev) Capacity() int64                        { return 16 * gb }
func (d *procDev) Name() string                           { return "proc" }

// TestCacheScratchReentry runs two reads on one cache, the second
// entering while the first is parked fetching the first of several
// missing runs. Each must fetch exactly the extents it fetches when
// run alone: a scratch shared between the calls would let the
// second's miss list overwrite the runs the first is still fetching.
func TestCacheScratchReentry(t *testing.T) {
	// holes gives a read over [base, base+8 pages) three missing runs:
	// the pages in between are resident.
	holes := func(base int64) []device.Run {
		return []device.Run{{Off: base + 2*64*kb, Len: 64 * kb}, {Off: base + 5*64*kb, Len: 64 * kb}}
	}
	for _, tc := range []struct {
		name string
		read func(c *Cache, p *sim.Proc, base int64)
	}{
		{"ReadAt", func(c *Cache, p *sim.Proc, base int64) { c.ReadAt(ioreq.Reader(p), base, 8*64*kb) }},
		{"ReadRuns", func(c *Cache, p *sim.Proc, base int64) {
			c.ReadRuns(ioreq.Reader(p), []device.Run{{Off: base, Len: 8 * 64 * kb}})
		}},
	} {
		bases := map[string]int64{"first": 0, "second": 1 * gb}
		stack := func() (*sim.Engine, *Cache, *procDev) {
			e := sim.NewEngine()
			d := &procDev{log: map[string][]device.Run{}}
			c := New(e, Params{Name: "pc", Capacity: 64 * mb, PageSize: 64 * kb, MemRate: 1e9}, d)
			e.Spawn("setup", func(p *sim.Proc) {
				for _, base := range bases {
					for _, h := range holes(base) {
						c.Populate(ioreq.Reader(p), h.Off, h.Len)
					}
				}
			})
			e.Run()
			return e, c, d
		}
		want := map[string][]device.Run{}
		for name, base := range bases {
			e, c, d := stack()
			e.Spawn(name, func(p *sim.Proc) { tc.read(c, p, base) })
			e.Run()
			if len(d.log[name]) != 3 {
				t.Fatalf("%s %s alone: %d device reads, want 3", tc.name, name, len(d.log[name]))
			}
			want[name] = d.log[name]
		}

		e, c, d := stack()
		var firstEnd, secondStart sim.Time
		e.Spawn("first", func(p *sim.Proc) { tc.read(c, p, bases["first"]); firstEnd = p.Now() })
		e.SpawnAfter(sim.Millisecond/2, "second", func(p *sim.Proc) { secondStart = p.Now(); tc.read(c, p, bases["second"]) })
		e.Run()
		if secondStart >= firstEnd {
			t.Fatalf("%s: second read entered at %v, after the first finished at %v", tc.name, secondStart, firstEnd)
		}
		if len(c.spare) != 2 {
			t.Errorf("%s: %d spare scratches, want 2 (one per overlapping call)", tc.name, len(c.spare))
		}
		for name, w := range want {
			if got := d.log[name]; !slices.Equal(got, w) {
				t.Errorf("%s %s: device reads %v, want %v as alone", tc.name, name, got, w)
			}
		}
	}
}
