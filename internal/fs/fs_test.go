package fs

import (
	"errors"
	"testing"
	"testing/quick"

	"ioeval/internal/cache"
	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/racebuild"
	"ioeval/internal/sim"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// newMount builds disk -> cache -> fs, the standard local stack.
func newMount(e *sim.Engine, cacheBytes int64) (*Mount, *device.Disk) {
	d := device.NewDisk(e, device.DefaultSATA("d", 150*gb, 100e6))
	c := cache.New(e, cache.DefaultParams("pc", cacheBytes), d)
	return NewMount(e, DefaultMountParams("ext4"), c), d
}

// newRawMount builds fs directly over the disk (no cache), for tests
// that need deterministic device traffic.
func newRawMount(e *sim.Engine) (*Mount, *device.Disk) {
	d := device.NewDisk(e, device.DefaultSATA("d", 150*gb, 100e6))
	return NewMount(e, DefaultMountParams("ext4"), d), d
}

func run(t *testing.T, e *sim.Engine, fn func(*sim.Proc)) {
	t.Helper()
	e.Spawn("t", func(p *sim.Proc) { fn(p) })
	e.Run()
}

func TestCreateWriteReadBack(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 256*mb)
	run(t, e, func(p *sim.Proc) {
		h, err := m.Open(ioreq.Meta(p), "/data/file", OWrite|OCreate)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if n := h.WriteAt(ioreq.Writer(p), 0, 4*mb); n != 4*mb {
			t.Fatalf("wrote %d", n)
		}
		if h.Size() != 4*mb {
			t.Fatalf("size = %d", h.Size())
		}
		if n := h.ReadAt(ioreq.Reader(p), 0, 4*mb); n != 4*mb {
			t.Fatalf("read %d", n)
		}
		h.Close(ioreq.Meta(p))
	})
}

func TestOpenMissingWithoutCreate(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 64*mb)
	run(t, e, func(p *sim.Proc) {
		_, err := m.Open(ioreq.Meta(p), "/nope", ORead)
		if !errors.Is(err, ErrNotExist) {
			t.Fatalf("err = %v, want ErrNotExist", err)
		}
	})
}

func TestReadShortAtEOF(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 64*mb)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 100*kb)
		if n := h.ReadAt(ioreq.Reader(p), 50*kb, 100*kb); n != 50*kb {
			t.Fatalf("short read = %d, want %d", n, 50*kb)
		}
		if n := h.ReadAt(ioreq.Reader(p), 200*kb, kb); n != 0 {
			t.Fatalf("read past EOF = %d, want 0", n)
		}
	})
}

func TestTruncateOnOpen(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 64*mb)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		h.WriteAt(ioreq.Writer(p), 0, mb)
		h.Close(ioreq.Meta(p))
		h2, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OTrunc)
		if h2.Size() != 0 {
			t.Fatalf("size after O_TRUNC = %d", h2.Size())
		}
		h2.Close(ioreq.Meta(p))
	})
}

func TestRemove(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 64*mb)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		h.WriteAt(ioreq.Writer(p), 0, mb)
		h.Close(ioreq.Meta(p))
		if err := m.Remove(ioreq.Meta(p), "/f"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if _, err := m.Stat(ioreq.Meta(p), "/f"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("stat after remove: %v", err)
		}
		if err := m.Remove(ioreq.Meta(p), "/f"); !errors.Is(err, ErrNotExist) {
			t.Fatalf("double remove: %v", err)
		}
	})
}

func TestSpaceReuseAfterRemove(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newRawMount(e)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/a", OWrite|OCreate)
		h.WriteAt(ioreq.Writer(p), 0, gb)
		h.Close(ioreq.Meta(p))
		used := m.nextFree
		m.Remove(ioreq.Meta(p), "/a")
		h2, _ := m.Open(ioreq.Meta(p), "/b", OWrite|OCreate)
		h2.WriteAt(ioreq.Writer(p), 0, gb)
		h2.Close(ioreq.Meta(p))
		if m.nextFree != used {
			t.Fatalf("freed space not reused: nextFree %d -> %d", used, m.nextFree)
		}
	})
}

func TestStat(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 64*mb)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 123*kb)
		h.Close(ioreq.Meta(p))
		fi, err := m.Stat(ioreq.Meta(p), "/f")
		if err != nil || fi.Size != 123*kb {
			t.Fatalf("stat = %+v, %v", fi, err)
		}
	})
}

func TestStreamingWriteIsSequentialOnDisk(t *testing.T) {
	e := sim.NewEngine()
	m, d := newRawMount(e)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		for off := int64(0); off < 64*mb; off += 4 * mb {
			h.WriteAt(ioreq.Writer(p), off, 4*mb)
		}
		h.Close(ioreq.Meta(p))
	})
	// The bump allocator must produce contiguous extents: all but the
	// first device write continue a sequential run.
	seq, writes := d.Telemetry().AuxVal("seq_ops"), d.Telemetry().Snapshot().Counters.Write.Ops
	if seq < writes-1 {
		t.Fatalf("writes not sequential: seq=%d of %d", seq, writes)
	}
}

func TestWriteReadViaCacheFasterThanDisk(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 256*mb)
	var tFirst, tSecond sim.Duration
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 32*mb)
		t0 := p.Now()
		h.ReadAt(ioreq.Reader(p), 0, 32*mb)
		tFirst = sim.Duration(p.Now() - t0)
		t0 = p.Now()
		h.ReadAt(ioreq.Reader(p), 0, 32*mb)
		tSecond = sim.Duration(p.Now() - t0)
		h.Close(ioreq.Meta(p))
	})
	// Freshly written data is in the page cache: both reads are hits
	// and cost about the same (memory speed).
	if tFirst > 2*tSecond {
		t.Fatalf("first read %v, second %v: cache not effective", tFirst, tSecond)
	}
}

func TestVecMatchesLoopTotals(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 256*mb)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		var vecs []IOVec
		for i := int64(0); i < 100; i++ {
			vecs = append(vecs, IOVec{Off: i * 10 * kb, Len: 2 * kb}) // strided
		}
		if n := h.WriteVec(ioreq.Writer(p), vecs); n != 200*kb {
			t.Fatalf("WriteVec total = %d, want %d", n, 200*kb)
		}
		if h.Size() != 99*10*kb+2*kb {
			t.Fatalf("size = %d", h.Size())
		}
		if n := h.ReadVec(ioreq.Reader(p), vecs); n != 200*kb {
			t.Fatalf("ReadVec total = %d, want %d", n, 200*kb)
		}
		h.Close(ioreq.Meta(p))
	})
	c := m.Telemetry().Snapshot().Counters
	if c.Write.Ops != 100 || c.Read.Ops != 100 {
		t.Fatalf("per-op accounting: %d writes, %d reads", c.Write.Ops, c.Read.Ops)
	}
}

func TestVecChargesPerOpCost(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 256*mb)
	var tVec sim.Duration
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 16*mb)
		h.Sync(ioreq.Meta(p))
		var vecs []IOVec
		for i := int64(0); i < 1000; i++ {
			vecs = append(vecs, IOVec{Off: i * 16 * kb, Len: kb})
		}
		t0 := p.Now()
		h.ReadVec(ioreq.Reader(p), vecs)
		tVec = sim.Duration(p.Now() - t0)
		h.Close(ioreq.Meta(p))
	})
	// 1000 ops × 2µs syscall ⇒ at least 2 ms regardless of caching.
	if tVec < 2*sim.Millisecond {
		t.Fatalf("vectored read %v, want ≥2ms of per-op cost", tVec)
	}
}

func TestOutOfSpacePanics(t *testing.T) {
	e := sim.NewEngine()
	d := device.NewDisk(e, device.DefaultSATA("tiny", 10*mb, 100e6))
	m := NewMount(e, DefaultMountParams("ext4"), d)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		defer func() {
			if recover() == nil {
				t.Error("expected out-of-space panic")
			}
		}()
		h.WriteAt(ioreq.Writer(p), 0, 20*mb)
	})
}

func TestUseAfterClosePanics(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newMount(e, 64*mb)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		h.Close(ioreq.Meta(p))
		defer func() {
			if recover() == nil {
				t.Error("expected use-after-close panic")
			}
		}()
		h.ReadAt(ioreq.Reader(p), 0, 1)
	})
}

func TestSyncFlushesToDevice(t *testing.T) {
	e := sim.NewEngine()
	m, d := newMount(e, 256*mb)
	run(t, e, func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 8*mb)
		if w := d.Telemetry().Snapshot().Counters.Write.Bytes; w != 0 {
			t.Fatalf("device written %d before sync", w)
		}
		h.Sync(ioreq.Meta(p))
		if w := d.Telemetry().Snapshot().Counters.Write.Bytes; w < 8*mb {
			t.Fatalf("device written %d after sync, want ≥8MB", w)
		}
		h.Close(ioreq.Meta(p))
	})
}

// Property: after writing arbitrary (offset, length) pairs, the file
// size equals the maximum end, and reading the whole file back
// returns exactly that many bytes.
func TestQuickSizeInvariant(t *testing.T) {
	f := func(pairs []uint16) bool {
		if len(pairs) == 0 {
			return true
		}
		e := sim.NewEngine()
		m, _ := newMount(e, 64*mb)
		ok := true
		e.Spawn("t", func(p *sim.Proc) {
			h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
			var maxEnd int64
			for i, v := range pairs {
				off := int64(v) * 64
				n := int64(i%7+1) * 100
				h.WriteAt(ioreq.Writer(p), off, n)
				if off+n > maxEnd {
					maxEnd = off + n
				}
			}
			if h.Size() != maxEnd {
				ok = false
			}
			if got := h.ReadAt(ioreq.Reader(p), 0, maxEnd+999); got != maxEnd {
				ok = false
			}
			h.Close(ioreq.Meta(p))
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: extents of a file never overlap each other physically.
func TestQuickExtentsDisjoint(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := sim.NewEngine()
		m, _ := newRawMount(e)
		ok := true
		e.Spawn("t", func(p *sim.Proc) {
			var hs []Handle
			for i, s := range sizes {
				if i >= 8 {
					break
				}
				h, _ := m.Open(ioreq.Meta(p), string(rune('a'+i)), OWrite|OCreate)
				h.WriteAt(ioreq.Writer(p), 0, int64(s)+1)
				hs = append(hs, h)
			}
			type iv struct{ off, end int64 }
			var all []iv
			for _, f := range m.files {
				for _, e := range f.extents {
					all = append(all, iv{e.physOff, e.physOff + e.length})
				}
			}
			for i := range all {
				for j := i + 1; j < len(all); j++ {
					a, b := all[i], all[j]
					if a.off < b.end && b.off < a.end {
						ok = false
					}
				}
			}
			for _, h := range hs {
				h.Close(ioreq.Meta(p))
			}
		})
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFSWrite(b *testing.B) {
	e := sim.NewEngine()
	m, _ := newMount(e, 256*mb)
	e.Spawn("w", func(p *sim.Proc) {
		h, _ := m.Open(ioreq.Meta(p), "/f", OWrite|OCreate)
		for i := 0; i < b.N; i++ {
			h.WriteAt(ioreq.Writer(p), int64(i%1024)*64*kb, 64*kb)
		}
		h.Close(ioreq.Meta(p))
	})
	b.ResetTimer()
	e.Run()
}

// TestSingleRangeAllocs pins a single-range ReadAt and WriteAt on a
// raw mount at no allocation: the extent lookup fills a stack buffer,
// and the fs and disk spans come from the span pool. A race build
// allows one per span, since its pool drops a quarter of them.
func TestSingleRangeAllocs(t *testing.T) {
	e := sim.NewEngine()
	m, _ := newRawMount(e)
	var h Handle
	run(t, e, func(p *sim.Proc) {
		var err error
		if h, err = m.Open(ioreq.Meta(p), "/f", OWrite|OCreate); err != nil {
			t.Fatalf("open: %v", err)
		}
		h.WriteAt(ioreq.Writer(p), 0, 64*mb)
	})
	const n = 2000
	limit := 0.05
	if racebuild.Enabled {
		limit = 2.05
	}
	for _, write := range []bool{false, true} {
		per := testing.AllocsPerRun(5, func() {
			e.Spawn("rw", func(p *sim.Proc) {
				r := ioreq.Reader(p)
				for i := int64(0); i < n; i++ {
					if write {
						h.WriteAt(r, i%1024*64*kb, 64*kb)
					} else {
						h.ReadAt(r, i%1024*64*kb, 64*kb)
					}
				}
			})
			e.Run()
		}) / n
		if per > limit {
			t.Errorf("write=%v: %.3f allocs per op, want <= %.2f", write, per, limit)
		}
	}
}
