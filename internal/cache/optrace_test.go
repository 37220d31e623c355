package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the cache op-trace golden under testdata/")

const opTraceGolden = "testdata/optrace.sha256"

// recDev is a lower device that records every call the cache makes
// to it as "(now, op, off, len)" and charges simulated time for it.
// Writes sleep longer than reads, so dirty write-back from one process
// overlaps other processes' inserts, evictions and drops.
type recDev struct {
	capacity int64
	log      strings.Builder
	onCall   func() // run at each call, before the device sleeps
}

func (d *recDev) record(r *ioreq.Request, op string, off, n int64) {
	fmt.Fprintf(&d.log, "%d %s %d %d\n", r.Now(), op, off, n)
	if d.onCall != nil {
		d.onCall()
	}
}

func (d *recDev) ReadAt(r *ioreq.Request, off, n int64) {
	d.record(r, "R", off, n)
	r.Proc().Sleep(20*sim.Microsecond + sim.Duration(n/64))
}

func (d *recDev) WriteAt(r *ioreq.Request, off, n int64) {
	d.record(r, "W", off, n)
	r.Proc().Sleep(150*sim.Microsecond + sim.Duration(n/16))
}

func (d *recDev) Flush(r *ioreq.Request) {
	d.record(r, "F", 0, 0)
	r.Proc().Sleep(5 * sim.Microsecond)
}

func (d *recDev) Capacity() int64 { return d.capacity }
func (d *recDev) Name() string    { return "rec" }

var _ device.BlockDev = (*recDev)(nil)

// listPages returns the pages of one intrusive list, head first, and
// panics if its links are inconsistent or it is longer than the index.
func listPages(c *Cache, name string, head, tail *page, next, prev func(*page) *page) []*page {
	var out []*page
	var last *page
	for pg := head; pg != nil; last, pg = pg, next(pg) {
		if prev(pg) != last {
			panic(fmt.Sprintf("%s list: page %d: broken back link", name, pg.idx))
		}
		if int64(len(out)) > c.nPages {
			panic(fmt.Sprintf("%s list holds more than the index's %d pages (or a cycle)", name, c.nPages))
		}
		out = append(out, pg)
	}
	if tail != last {
		panic(fmt.Sprintf("%s list: tail is not the last linked page", name))
	}
	return out
}

// checkInvariants verifies the cache's internal bookkeeping without
// changing it (the chunk hint included):
//   - the page index and the LRU list hold the same pages: every
//     linked page is the index's entry for its idx, and nPages is the
//     LRU length;
//   - every chunk in the index is non-empty with a true resident
//     count, and the hint, when set, is the index's chunk for its key;
//   - the dirty list's links are consistent, it is the LRU order
//     restricted to dirty pages, and nDirty is its length.
//
// It runs inside simulated processes, where t.Fatal would stop only
// that process's goroutine and leave the engine waiting for it, so it
// panics instead, which fails the test binary at once.
func checkInvariants(c *Cache) {
	linked := listPages(c, "LRU", c.head, c.tail,
		func(pg *page) *page { return pg.next }, func(pg *page) *page { return pg.prev })
	var lruDirty []*page
	for _, pg := range linked {
		if pg.dirty {
			lruDirty = append(lruDirty, pg)
		}
		ch := c.chunks[pg.idx>>chunkShift]
		if ch == nil || pg.ch != ch || ch.pages[pg.idx&(1<<chunkShift-1)] != pg {
			panic(fmt.Sprintf("linked page %d is not the index's entry for its idx", pg.idx))
		}
	}
	if int64(len(linked)) != c.nPages {
		panic(fmt.Sprintf("LRU holds %d pages, nPages = %d", len(linked), c.nPages))
	}
	for key, ch := range c.chunks {
		n := 0
		for _, pg := range ch.pages {
			if pg != nil {
				n++
			}
		}
		if ch.key != key || n == 0 || n != ch.n {
			panic(fmt.Sprintf("chunk %d: key %d, count %d, holds %d pages", key, ch.key, ch.n, n))
		}
	}
	if h := c.hint; h != nil && c.chunks[h.key] != h {
		panic(fmt.Sprintf("hint chunk %d is not in the index", h.key))
	}
	dirty := listPages(c, "dirty", c.dhead, c.dtail,
		func(pg *page) *page { return pg.dnext }, func(pg *page) *page { return pg.dprev })
	if int64(len(dirty)) != c.nDirty {
		panic(fmt.Sprintf("nDirty = %d, dirty list holds %d pages", c.nDirty, len(dirty)))
	}
	if !slices.Equal(dirty, lruDirty) {
		panic(fmt.Sprintf("dirty list is not the LRU order of the %d dirty pages", len(lruDirty)))
	}
}

// opTrace drives a seeded random mix of every cache entry point from
// several concurrent processes over a recording device and returns
// the device-call trace followed by the final statistics.
func opTrace(policy Policy, seed int64) (trace string, st Stats) {
	const (
		ps      = 4 << 10
		procs   = 5
		steps   = 300
		devSize = 4<<20 - 3000 // not page-aligned: exercises the clipped last page
	)
	e := sim.NewEngine()
	dev := &recDev{capacity: devSize}
	c := New(e, Params{
		Name:       "trace",
		Capacity:   64 * ps,
		PageSize:   ps,
		Policy:     policy,
		MemRate:    1e9,
		ReadAhead:  8 * ps,
		DirtyRatio: 0.25,
	}, dev)
	dev.onCall = func() { checkInvariants(c) }

	extent := func(rng *rand.Rand, next int64) (int64, int64) {
		off := rng.Int63n(devSize)
		if next >= 0 && next < devSize && rng.Intn(3) == 0 {
			off = next // continue a stream, for read-ahead
		} else if rng.Intn(2) == 0 {
			off -= off % ps
		}
		n := 1 + rng.Int63n(12*ps)
		if off+n > devSize {
			n = devSize - off
		}
		return off, n
	}
	runs := func(rng *rand.Rand, next int64) []device.Run {
		k := 1 + rng.Intn(5)
		out := make([]device.Run, 0, k)
		contiguous := rng.Intn(2) == 0
		for i := 0; i < k; i++ {
			var off, n int64
			if contiguous && i > 0 {
				prev := out[i-1]
				off, n = prev.Off+prev.Len, 1+rng.Int63n(4*ps)
				if off >= devSize {
					break
				}
				if off+n > devSize {
					n = devSize - off
				}
			} else {
				off, n = extent(rng, next)
			}
			out = append(out, device.Run{Off: off, Len: n})
		}
		return out
	}

	for i := 0; i < procs; i++ {
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Proc) {
			next := int64(-1)
			for s := 0; s < steps; s++ {
				switch k := rng.Intn(100); {
				case k < 28:
					off, n := extent(rng, next)
					c.ReadAt(ioreq.Reader(p), off, n)
					next = off + n
				case k < 52:
					off, n := extent(rng, -1)
					c.WriteAt(ioreq.Writer(p), off, n)
				case k < 64:
					rs := runs(rng, next)
					c.ReadRuns(ioreq.Reader(p), rs)
					next = rs[len(rs)-1].Off + rs[len(rs)-1].Len
				case k < 76:
					c.WriteRuns(ioreq.Writer(p), runs(rng, -1))
				case k < 84:
					off, n := extent(rng, -1)
					c.Populate(ioreq.Writer(p), off, n)
				case k < 92:
					off, n := extent(rng, -1)
					c.InvalidateRange(off, n*int64(1+rng.Intn(8)))
				case k < 97:
					c.Flush(ioreq.Meta(p))
				default:
					c.DropCaches(ioreq.Meta(p))
				}
				checkInvariants(c)
				p.Sleep(sim.Duration(rng.Int63n(int64(100 * sim.Microsecond))))
			}
		})
	}
	e.Run()
	checkInvariants(c)
	fmt.Fprintf(&dev.log, "end %d stats %+v cached %d dirty %d\n",
		e.Now(), c.Stats, c.CachedBytes(), c.DirtyBytes())
	return dev.log.String(), c.Stats
}

// TestCacheOpTraceGolden pins the cache's observable behaviour — every
// call it makes to the device below, with its simulated time, and the
// final statistics — under a concurrent random workload that mixes
// all entry points, across both write policies. Any change to the
// cache's data structures must reproduce the trace exactly.
func TestCacheOpTraceGolden(t *testing.T) {
	var all strings.Builder
	for _, sc := range []struct {
		policy Policy
		seed   int64
	}{{WriteBack, 1}, {WriteBack, 2}, {WriteThrough, 3}} {
		trace, st := opTrace(sc.policy, sc.seed)
		if st.Evictions == 0 || st.WriteBackBytes == 0 && sc.policy == WriteBack {
			t.Fatalf("%v seed %d: workload too light: %+v", sc.policy, sc.seed, st)
		}
		if sc.policy == WriteBack && st.DirtyEvict == 0 {
			t.Fatalf("seed %d: no dirty evictions", sc.seed)
		}
		fmt.Fprintf(&all, "== %v seed %d\n%s", sc.policy, sc.seed, trace)
	}
	sum := sha256.Sum256([]byte(all.String()))
	got := hex.EncodeToString(sum[:])
	lines := strings.Count(all.String(), "\n")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(opTraceGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(opTraceGolden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d trace lines)", opTraceGolden, lines)
		return
	}
	want, err := os.ReadFile(opTraceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("op trace (%d lines) hashes to %s, golden %s", lines, got, strings.TrimSpace(string(want)))
	}
}
