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
	onCall   func(op string, off, n int64) // run at each call, before the device sleeps
}

func (d *recDev) record(r *ioreq.Request, op string, off, n int64) {
	fmt.Fprintf(&d.log, "%d %s %d %d\n", r.Now(), op, off, n)
	if d.onCall != nil {
		d.onCall(op, off, n)
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

// listNodes returns the nodes of list l, head first, and panics if its
// links are inconsistent or it holds more nodes than there are
// resident pages.
func listNodes(c *Cache, l int) []*node {
	name := [2]string{"LRU", "dirty"}[l]
	var out []*node
	var last *node
	for n := c.lists[l].head; n != nil; last, n = n, n.link[l].next {
		if n.link[l].prev != last {
			panic(fmt.Sprintf("%s list: node [%d,%d): broken back link", name, n.lo, n.hi))
		}
		if int64(len(out)) > c.nPages {
			panic(fmt.Sprintf("%s list holds more nodes than the %d resident pages (or a cycle)", name, c.nPages))
		}
		out = append(out, n)
	}
	if c.lists[l].tail != last {
		panic(fmt.Sprintf("%s list: tail is not the last linked node", name))
	}
	return out
}

// checkInvariants verifies the cache's internal bookkeeping without
// changing it (the index memo included):
//   - every linked node holds at least one page, lies within one chunk
//     and is the index's entry at its first page;
//   - every index entry sits at its node's first page, in a non-empty
//     chunk that its directory marks present and that points back at
//     it, and the index holds as many nodes as the LRU list, so the two
//     hold the same pages;
//   - within a chunk the nodes ascend without overlap, so no page is
//     resident twice;
//   - nPages and nDirty are the pages of the linked and of the dirty
//     nodes, and each memo slot in use agrees with the index;
//   - the dirty list's links are consistent and it is the LRU order
//     restricted to dirty nodes.
//
// It runs inside simulated processes, where t.Fatal would stop only
// that process's goroutine and leave the engine waiting for it, so it
// panics instead, which fails the test binary at once.
func checkInvariants(c *Cache) {
	linked := listNodes(c, lru)
	var lruDirty []*node
	var pages, dirty int64
	for _, n := range linked {
		if n.lo >= n.hi || n.lo>>chunkShift != (n.hi-1)>>chunkShift {
			panic(fmt.Sprintf("node [%d,%d) is empty or crosses a chunk", n.lo, n.hi))
		}
		d := c.dirs[n.lo>>(2*chunkShift)]
		if d == nil || n.ch != d.chunks[n.lo>>chunkShift&chunkMask] || n.ch.nodes[n.lo&chunkMask] != n {
			panic(fmt.Sprintf("linked node [%d,%d) is not the index's entry at %d", n.lo, n.hi, n.lo))
		}
		pages += n.len()
		if n.dirty {
			lruDirty = append(lruDirty, n)
			dirty += n.len()
		}
	}
	if pages != c.nPages || dirty != c.nDirty {
		panic(fmt.Sprintf("LRU holds %d pages, %d dirty; nPages = %d, nDirty = %d", pages, dirty, c.nPages, c.nDirty))
	}
	indexed := 0
	for dk, d := range c.dirs {
		for j, ch := range d.chunks {
			key := dk<<chunkShift + int64(j)
			present := d.present>>j&1 == 1
			if ch == nil {
				if present {
					panic(fmt.Sprintf("directory %d slot %d: present without a chunk", dk, j))
				}
				continue
			}
			if ch.dir != d || !present || ch.starts == 0 {
				panic(fmt.Sprintf("chunk %d: starts %#x, present %v, in its directory %v", key, ch.starts, present, ch.dir == d))
			}
			end := key << chunkShift // end of the previous node in the chunk
			for i, n := range ch.nodes {
				if (ch.starts>>i&1 == 1) != (n != nil) {
					panic(fmt.Sprintf("chunk %d slot %d: start bit and node disagree", key, i))
				}
				if n == nil {
					continue
				}
				if n.lo != key<<chunkShift+int64(i) || n.lo < end {
					panic(fmt.Sprintf("chunk %d slot %d: node [%d,%d) misplaced or overlapping", key, i, n.lo, n.hi))
				}
				end = n.hi
				indexed++
			}
		}
	}
	if indexed != len(linked) {
		panic(fmt.Sprintf("index holds %d nodes, LRU %d", indexed, len(linked)))
	}
	for i := 0; c.recent != nil && i < len(c.recent); i++ {
		m := c.recent[i]
		if uint64(m.key)*0x9E3779B97F4A7C15>>(64-recentBits) == uint64(i) && c.dirs[m.key] != m.d {
			panic(fmt.Sprintf("memo slot %d: directory %d disagrees with the index", i, m.key))
		}
	}
	if !slices.Equal(listNodes(c, dirtyList), lruDirty) {
		panic(fmt.Sprintf("dirty list is not the LRU order of the %d dirty nodes", len(lruDirty)))
	}
}

// dirtyShadow holds the pages a write-back workload has dirtied whose
// data has not provably left the cache. A page enters when a write
// covering it is issued. It leaves when a device write issued after
// that covers it, when the workload invalidates it, or when a
// DropCaches that the write overlapped returns. DropCaches releases
// every page after its Flush, dirty ones included, so a page dirtied
// while that Flush sleeps is discarded, not written: a known defect,
// kept because the op-trace golden pins it.
type dirtyShadow struct {
	pages map[int64]*shadowWrite // page index → its latest write
	clock int                    // counts write issues and returns
}

// shadowWrite is one write: done is the clock at its return, 0 until
// then.
type shadowWrite struct{ done int }

// write issues a write covering the runs of a cache with page size ps
// by calling do, and records its pages.
func (s *dirtyShadow) write(ps int64, runs []device.Run, do func()) {
	w := &shadowWrite{}
	for _, run := range runs {
		first, last := pagesOf(ps, run.Off, run.Len)
		for idx := first; idx < last; idx++ {
			s.pages[idx] = w
		}
	}
	s.clock++
	do()
	s.clock++
	w.done = s.clock
}

// settle removes the pages covering [off, off+n), whose data was
// written to the device or invalidated.
func (s *dirtyShadow) settle(ps, off, n int64) {
	first, last := pagesOf(ps, off, n)
	for idx := first; idx < last; idx++ {
		delete(s.pages, idx)
	}
}

// pagesOf returns the pages [first, last) covering [off, off+n) of a
// cache with page size ps.
func pagesOf(ps, off, n int64) (first, last int64) {
	if n <= 0 {
		return 0, 0
	}
	return off / ps, (off + n + ps - 1) / ps
}

// dropCaches runs c.DropCaches and removes the pages of the writes that
// had not returned when it started.
func (s *dirtyShadow) dropCaches(c *Cache, r *ioreq.Request) {
	start := s.clock
	c.DropCaches(r)
	for idx, w := range s.pages {
		if w.done == 0 || w.done > start {
			delete(s.pages, idx)
		}
	}
}

// checkNoneLost panics unless every page in the shadow is still dirty
// in c: a dirty page that left the cache without a later device write
// covering it lost the data written to it.
func (s *dirtyShadow) checkNoneLost(c *Cache) {
	for idx := range s.pages {
		if !dirtyAt(c, idx) {
			panic(fmt.Sprintf("dirty page %d lost: neither dirty in the cache, written to the device nor invalidated", idx))
		}
	}
}

// dirtyAt reports whether page idx is resident and dirty in c, without
// touching the index memo.
func dirtyAt(c *Cache, idx int64) bool {
	if d := c.dirs[idx>>(2*chunkShift)]; d != nil && d.chunks[idx>>chunkShift&chunkMask] != nil {
		for _, n := range d.chunks[idx>>chunkShift&chunkMask].nodes {
			if n != nil && n.lo <= idx && idx < n.hi {
				return n.dirty
			}
		}
	}
	return false
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
	shadow := dirtyShadow{pages: map[int64]*shadowWrite{}}
	dev.onCall = func(op string, off, n int64) {
		checkInvariants(c)
		if op == "W" {
			shadow.settle(ps, off, n)
		}
	}
	write := func(runs []device.Run, do func()) {
		if policy == WriteThrough {
			do()
			return
		}
		shadow.write(ps, runs, do)
	}

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
					write([]device.Run{{Off: off, Len: n}}, func() { c.WriteAt(ioreq.Writer(p), off, n) })
				case k < 64:
					rs := runs(rng, next)
					c.ReadRuns(ioreq.Reader(p), rs)
					next = rs[len(rs)-1].Off + rs[len(rs)-1].Len
				case k < 76:
					rs := runs(rng, -1)
					write(rs, func() { c.WriteRuns(ioreq.Writer(p), rs) })
				case k < 84:
					off, n := extent(rng, -1)
					c.Populate(ioreq.Writer(p), off, n)
				case k < 92:
					off, n := extent(rng, -1)
					n *= int64(1 + rng.Intn(8))
					shadow.settle(ps, off, n)
					c.InvalidateRange(off, n)
				case k < 97:
					c.Flush(ioreq.Meta(p))
				default:
					shadow.dropCaches(c, ioreq.Meta(p))
				}
				checkInvariants(c)
				p.Sleep(sim.Duration(rng.Int63n(int64(100 * sim.Microsecond))))
			}
		})
	}
	e.Run()
	checkInvariants(c)
	shadow.checkNoneLost(c)
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
