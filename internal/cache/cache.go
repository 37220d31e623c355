// Package cache models an operating-system page/buffer cache sitting
// between a filesystem and a block device. It implements LRU
// replacement, write-back with dirty throttling (the Linux
// dirty_ratio mechanism), write-through mode, and sequential
// read-ahead. The cache is itself a device.BlockDev so it stacks
// transparently over a disk or RAID array.
//
// The cache is what produces the paper's two headline cache effects:
// characterization runs use files of twice RAM so that the cache
// thrashes and measured rates reflect the device, while applications
// whose working set fits in RAM exceed the characterized rates
// (used percentage > 100%).
package cache

import (
	"fmt"
	"slices"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// Policy selects how writes propagate to the underlying device.
type Policy int

// Write policies.
const (
	// WriteBack buffers dirty pages and writes them out on eviction,
	// throttling, or Flush.
	WriteBack Policy = iota
	// WriteThrough writes to the device immediately while also
	// populating the cache for subsequent reads.
	WriteThrough
)

func (p Policy) String() string {
	if p == WriteBack {
		return "write-back"
	}
	return "write-through"
}

// Params configures a Cache.
type Params struct {
	Name     string
	Capacity int64 // bytes of cacheable memory
	PageSize int64 // bytes per page (power of two)
	Policy   Policy

	// MemRate is the memory-copy bandwidth (bytes/s) charged for
	// moving data between the cache and the requester.
	MemRate float64

	// ReadAhead is the extra bytes fetched past a missing run when the
	// access continues a sequential pattern. Zero disables read-ahead.
	ReadAhead int64

	// DirtyRatio is the fraction of capacity that may be dirty before
	// a writer is throttled into synchronous write-out (flushing down
	// to DirtyRatio/2). Zero means default 0.20.
	DirtyRatio float64
}

// DefaultParams returns a page-cache configuration typical of a Linux
// node with the given cacheable memory.
func DefaultParams(name string, capacity int64) Params {
	return Params{
		Name:       name,
		Capacity:   capacity,
		PageSize:   64 << 10,
		Policy:     WriteBack,
		MemRate:    2.5e9,
		ReadAhead:  512 << 10,
		DirtyRatio: 0.20,
	}
}

// page is one resident page. Pages are linked into the cache's LRU
// list intrusively and recycled through its free list, so steady-state
// insert/evict traffic allocates nothing.
type page struct {
	idx        int64
	dirty      bool
	prev, next *page // LRU neighbours: prev is more recent
	// gen is bumped each time the page is released. A holder that
	// sleeps while keeping a *page (evictLRU across its write-out)
	// compares generations afterwards to learn whether the page was
	// evicted, dropped or invalidated — and possibly reused — meanwhile.
	gen uint64
}

// Stats counts cache activity.
type Stats struct {
	HitBytes, MissBytes   int64
	ReadOps, WriteOps     int64
	WriteBackBytes        int64
	ReadAheadBytes        int64
	ThrottleStalls        int64
	Evictions, DirtyEvict int64
}

// Cache is an LRU page cache over a block device.
type Cache struct {
	eng    *sim.Engine
	params Params
	under  device.BlockDev
	pages  map[int64]*page
	head   *page // most recently used
	tail   *page // least recently used; the next victim
	free   *page // released pages, chained through next
	nDirty int64 // dirty pages

	// lastReadEnd is the byte after the most recent read; read-ahead
	// fires only when a read continues from here (Linux read-ahead
	// switches itself off for random access).
	lastReadEnd int64

	// Stats accumulates hit/miss and write-back counters.
	Stats Stats

	rec *telemetry.Recorder
}

var _ device.BlockDev = (*Cache)(nil)

// New builds a cache over the given device.
func New(e *sim.Engine, params Params, under device.BlockDev) *Cache {
	if params.PageSize <= 0 || params.PageSize&(params.PageSize-1) != 0 {
		panic(fmt.Sprintf("cache %q: page size %d not a power of two", params.Name, params.PageSize))
	}
	if params.Capacity < params.PageSize {
		panic(fmt.Sprintf("cache %q: capacity %d below one page", params.Name, params.Capacity))
	}
	if params.MemRate <= 0 {
		panic(fmt.Sprintf("cache %q: MemRate must be positive", params.Name))
	}
	if params.DirtyRatio == 0 {
		params.DirtyRatio = 0.20
	}
	return &Cache{
		eng:    e,
		params: params,
		under:  under,
		pages:  map[int64]*page{},
		rec:    telemetry.NewRecorder(e, "cache:"+params.Name, telemetry.LevelCache, 1),
	}
}

// Telemetry returns the cache's telemetry probe.
func (c *Cache) Telemetry() *telemetry.Recorder { return c.rec }

// Name implements device.BlockDev.
func (c *Cache) Name() string { return c.params.Name }

// Capacity implements device.BlockDev (the capacity of the underlying
// device, not of the cache memory).
func (c *Cache) Capacity() int64 { return c.under.Capacity() }

// Under returns the wrapped device.
func (c *Cache) Under() device.BlockDev { return c.under }

// Params returns the cache configuration.
func (c *Cache) Params() Params { return c.params }

// CachedBytes returns the bytes currently resident.
func (c *Cache) CachedBytes() int64 { return int64(len(c.pages)) * c.params.PageSize }

// DirtyBytes returns the dirty bytes awaiting write-back.
func (c *Cache) DirtyBytes() int64 { return c.nDirty * c.params.PageSize }

func (c *Cache) maxPages() int64 { return c.params.Capacity / c.params.PageSize }

func (c *Cache) memCopy(p *sim.Proc, n int64) {
	p.Sleep(sim.Duration(float64(n) / c.params.MemRate * 1e9))
}

// pushFront links pg at the MRU position.
func (c *Cache) pushFront(pg *page) {
	pg.prev, pg.next = nil, c.head
	if c.head != nil {
		c.head.prev = pg
	} else {
		c.tail = pg
	}
	c.head = pg
}

// unlink removes pg from the LRU list.
func (c *Cache) unlink(pg *page) {
	if pg.prev != nil {
		pg.prev.next = pg.next
	} else {
		c.head = pg.next
	}
	if pg.next != nil {
		pg.next.prev = pg.prev
	} else {
		c.tail = pg.prev
	}
	pg.prev, pg.next = nil, nil
}

// touch moves pg to the MRU position.
func (c *Cache) touch(pg *page) {
	if c.head != pg {
		c.unlink(pg)
		c.pushFront(pg)
	}
}

// newPage returns an unlinked page for idx, recycled from the free
// list when one is available; the caller links it with pushFront.
func (c *Cache) newPage(idx int64, dirty bool) *page {
	pg := c.free
	if pg != nil {
		c.free = pg.next
	} else {
		pg = &page{}
	}
	pg.idx, pg.dirty = idx, dirty
	return pg
}

// release unlinks a resident page, drops it from the map and the dirty
// count, and recycles it. Callers must hold no other reference they
// expect to stay valid: the generation bump tells them it is gone.
func (c *Cache) release(pg *page) {
	if pg.dirty {
		pg.dirty = false
		c.nDirty--
	}
	c.unlink(pg)
	delete(c.pages, pg.idx)
	pg.gen++
	pg.next = c.free
	c.free = pg
}

// insert adds a page, evicting as needed. Returns the page.
// Eviction of a dirty page synchronously writes it to the device.
func (c *Cache) insert(r *ioreq.Request, idx int64, dirty bool) *page {
	if pg, ok := c.pages[idx]; ok {
		if dirty && !pg.dirty {
			pg.dirty = true
			c.nDirty++
		}
		c.touch(pg)
		return pg
	}
	for int64(len(c.pages)) >= c.maxPages() {
		c.evictLRU(r)
	}
	// evictLRU may have slept (dirty write-back), letting another
	// process insert this very page meanwhile — re-check before
	// creating a duplicate (which would orphan an LRU entry).
	if pg, ok := c.pages[idx]; ok {
		if dirty && !pg.dirty {
			pg.dirty = true
			c.nDirty++
		}
		c.touch(pg)
		return pg
	}
	pg := c.newPage(idx, dirty)
	c.pushFront(pg)
	c.pages[idx] = pg
	if dirty {
		c.nDirty++
	}
	return pg
}

func (c *Cache) evictLRU(r *ioreq.Request) {
	pg := c.tail
	if pg == nil {
		panic("cache: eviction with empty LRU")
	}
	gen := pg.gen
	c.Stats.Evictions++
	c.rec.Add("evictions", 1)
	if pg.dirty {
		c.Stats.DirtyEvict++
		c.rec.Add("dirty_evictions", 1)
		// Writing back a single page would be pathological on parity
		// arrays (one read-modify-write per 64 KB). Like the kernel
		// flusher, cluster the write-back: take the victim's whole
		// contiguous dirty neighbourhood in one I/O.
		idxs := []int64{pg.idx}
		for i := pg.idx - 1; ; i-- {
			if n, ok := c.pages[i]; ok && n.dirty {
				idxs = append(idxs, i)
			} else {
				break
			}
		}
		for i := pg.idx + 1; ; i++ {
			if n, ok := c.pages[i]; ok && n.dirty {
				idxs = append(idxs, i)
			} else {
				break
			}
		}
		c.writeOut(r, idxs)
	}
	// The write-out may have slept, letting another process evict,
	// drop or invalidate the victim (and reuse the page object for
	// another index). Release it only if it is still the page we
	// picked.
	if pg.gen == gen {
		c.release(pg)
	}
}

// writeOut writes the given page indices (merged into contiguous
// runs) to the underlying device. Pages are claimed — marked clean —
// *before* the device writes are issued, the analogue of the kernel's
// PG_writeback flag: a concurrent flusher that runs while this one is
// blocked in the device must not write the same pages again. Pages
// re-dirtied during the flight simply get written by a later flush.
func (c *Cache) writeOut(r *ioreq.Request, idxs []int64) {
	claimed := idxs[:0]
	for _, idx := range idxs {
		if pg, ok := c.pages[idx]; ok && pg.dirty {
			pg.dirty = false
			c.nDirty--
			claimed = append(claimed, idx)
		}
	}
	if len(claimed) == 0 {
		return
	}
	slices.Sort(claimed)
	ps := c.params.PageSize
	runStart := claimed[0]
	runLen := int64(1)
	flushRun := func(start, count int64) {
		off := start * ps
		n := count * ps
		if off+n > c.under.Capacity() {
			n = c.under.Capacity() - off
		}
		c.under.WriteAt(r, off, n)
		c.Stats.WriteBackBytes += n
		c.rec.Add("writeback_bytes", n)
	}
	for _, idx := range claimed[1:] {
		if idx == runStart+runLen {
			runLen++
			continue
		}
		flushRun(runStart, runLen)
		runStart, runLen = idx, 1
	}
	flushRun(runStart, runLen)
}

// pageRange returns the first and one-past-last page index covering
// [off, off+n).
func (c *Cache) pageRange(off, n int64) (int64, int64) {
	ps := c.params.PageSize
	return off / ps, (off + n + ps - 1) / ps
}

// ReadAt implements device.BlockDev. Missing page runs are fetched
// from the underlying device (with read-ahead when the run is large
// enough to look sequential); resident pages cost memory-copy time.
func (c *Cache) ReadAt(r *ioreq.Request, off, n int64) {
	if n == 0 {
		return
	}
	r.Enter(c.rec)
	defer r.Exit()
	defer r.Observe(telemetry.ClassRead, 1, n)
	p := r.Proc()
	c.Stats.ReadOps++
	first, last := c.pageRange(off, n)
	ps := c.params.PageSize
	streaming := off == c.lastReadEnd
	c.lastReadEnd = off + n

	// Identify missing runs.
	var missStart int64 = -1
	var runs [][2]int64
	for idx := first; idx < last; idx++ {
		if pg, ok := c.pages[idx]; ok {
			c.touch(pg)
			if missStart >= 0 {
				runs = append(runs, [2]int64{missStart, idx})
				missStart = -1
			}
		} else if missStart < 0 {
			missStart = idx
		}
	}
	if missStart >= 0 {
		runs = append(runs, [2]int64{missStart, last})
	}

	var missBytes int64
	for _, mr := range runs {
		start, end := mr[0], mr[1]
		// Read-ahead: extend the last run if it reaches the end of the
		// request and the request continues a sequential stream.
		extra := int64(0)
		if streaming && c.params.ReadAhead > 0 && end == last {
			extra = c.params.ReadAhead / ps
			maxPage := c.under.Capacity() / ps
			if end+extra > maxPage {
				extra = maxPage - end
			}
		}
		readOff := start * ps
		readN := (end + extra - start) * ps
		if readOff+readN > c.under.Capacity() {
			readN = c.under.Capacity() - readOff
		}
		// Mark pages resident before the device wait so a concurrent
		// reader does not double-fetch (models per-page I/O locking).
		for idx := start; idx < end+extra; idx++ {
			c.insert(r, idx, false)
		}
		c.under.ReadAt(r, readOff, readN)
		missBytes += (end - start) * ps
		c.Stats.ReadAheadBytes += extra * ps
	}

	hitBytes := n - min(missBytes, n)
	c.Stats.HitBytes += hitBytes
	c.Stats.MissBytes += min(missBytes, n)
	c.rec.Add("hit_bytes", hitBytes)
	c.rec.Add("miss_bytes", min(missBytes, n))
	c.memCopy(p, n)
}

// WriteAt implements device.BlockDev.
func (c *Cache) WriteAt(r *ioreq.Request, off, n int64) {
	if n == 0 {
		return
	}
	r.Enter(c.rec)
	defer r.Exit()
	defer r.Observe(telemetry.ClassWrite, 1, n)
	p := r.Proc()
	c.Stats.WriteOps++
	first, last := c.pageRange(off, n)
	c.memCopy(p, n)

	if c.params.Policy == WriteThrough {
		for idx := first; idx < last; idx++ {
			c.insert(r, idx, false)
		}
		c.under.WriteAt(r, off, n)
		return
	}

	for idx := first; idx < last; idx++ {
		c.insert(r, idx, true)
	}
	c.throttle(r)
}

// throttle enforces the dirty ratio: when dirty pages exceed the
// threshold the writer synchronously cleans down to half the
// threshold, exactly like a task stuck in balance_dirty_pages.
func (c *Cache) throttle(r *ioreq.Request) {
	limit := int64(float64(c.maxPages()) * c.params.DirtyRatio)
	if limit < 1 {
		limit = 1
	}
	if c.nDirty <= limit {
		return
	}
	c.Stats.ThrottleStalls++
	c.rec.Add("throttle_stalls", 1)
	target := limit / 2
	// Collect dirty pages from the LRU end (oldest first).
	var victims []int64
	for pg := c.tail; pg != nil && c.nDirty-int64(len(victims)) > target; pg = pg.prev {
		if pg.dirty {
			victims = append(victims, pg.idx)
		}
	}
	c.writeOut(r, victims)
}

// Flush implements device.BlockDev: write out every dirty page and
// flush the device below.
func (c *Cache) Flush(r *ioreq.Request) {
	r.PushOn(c.rec)
	defer r.Pop()
	defer r.Observe(telemetry.ClassMeta, 1, 0)
	var dirtyIdx []int64
	for idx, pg := range c.pages {
		if pg.dirty {
			dirtyIdx = append(dirtyIdx, idx)
		}
	}
	// Write back in page order: map iteration order must not reach
	// the device-level event sequence (run-to-run determinism).
	slices.Sort(dirtyIdx)
	c.writeOut(r, dirtyIdx)
	c.under.Flush(r)
}

// DropCaches discards all clean pages and write-locks nothing — the
// simulation analogue of `echo 3 > /proc/sys/vm/drop_caches`, used to
// get cold-cache characterization runs. Dirty pages are written out
// first.
func (c *Cache) DropCaches(r *ioreq.Request) {
	c.Flush(r)
	// Release every page (not just forget the map), so an eviction
	// still in its write-out sees the generation change.
	for c.tail != nil {
		c.release(c.tail)
	}
}

// InvalidateRange drops all pages covering [off, off+n), discarding
// dirty data (callers use it for cache-coherence invalidation, where
// the remote copy is authoritative).
func (c *Cache) InvalidateRange(off, n int64) {
	first, last := c.pageRange(off, n)
	for idx, pg := range c.pages {
		if idx >= first && idx < last {
			c.release(pg)
		}
	}
}

// Populate inserts the range as clean resident pages without device
// traffic or copy charges — the caller already moved the data (e.g.
// an NFS client caching its own just-written bytes).
func (c *Cache) Populate(r *ioreq.Request, off, n int64) {
	if n <= 0 {
		return
	}
	first, last := c.pageRange(off, n)
	for idx := first; idx < last; idx++ {
		c.insert(r, idx, false)
	}
}
