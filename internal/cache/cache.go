// Package cache models an operating-system page/buffer cache sitting
// between a filesystem and a block device. It implements LRU
// replacement, write-back with dirty throttling (the Linux
// dirty_ratio mechanism), write-through mode, and sequential
// read-ahead. The cache is itself a device.BlockDev so it stacks
// transparently over a disk or RAID array.
// Residency is per page: a chunked page index, an LRU list and, through
// the same pages, a dirty list in LRU order, so that Flush and dirty
// throttling cost O(dirty pages), not O(resident pages).
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

var (
	kEvictions      = telemetry.NewAuxKey("evictions")
	kDirtyEvictions = telemetry.NewAuxKey("dirty_evictions")
	kWritebackBytes = telemetry.NewAuxKey("writeback_bytes")
	kHitBytes       = telemetry.NewAuxKey("hit_bytes")
	kMissBytes      = telemetry.NewAuxKey("miss_bytes")
	kThrottleStalls = telemetry.NewAuxKey("throttle_stalls")
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
	idx          int64
	dirty        bool
	ch           *chunk // the index chunk holding this page
	prev, next   *page  // LRU neighbours: prev is more recent
	dprev, dnext *page  // dirty-list neighbours, linked while dirty
	// gen is bumped each time the page is released. A holder that
	// sleeps while keeping a *page (evictLRU across its write-out)
	// compares generations afterwards to learn whether the page was
	// evicted, dropped or invalidated — and possibly reused — meanwhile.
	gen uint64
}

// chunkShift sets the page index's granularity: 64 pages a chunk.
const chunkShift = 6

// chunk is one slot array of the page index. Empty chunks leave the
// index and are recycled through the cache's free chain.
type chunk struct {
	pages [1 << chunkShift]*page
	n     int    // resident pages
	key   int64  // idx >> chunkShift of every page here
	next  *chunk // free chain
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
	chunks map[int64]*chunk // page index, keyed by idx >> chunkShift
	hint   *chunk           // last chunk looked up; nil once any is freed
	free   *page            // released pages, chained through next
	freeCh *chunk           // empty chunks, chained through next
	nPages int64            // resident pages
	head   *page            // most recently used
	tail   *page            // least recently used; the next victim
	dhead  *page            // the dirty list is the LRU list restricted
	dtail  *page            // to dirty pages, in the same order
	nDirty int64            // dirty pages
	spare  []*scratch       // scratch not held by a call (takeScratch)

	// maxPages (Capacity/PageSize) and dirtyLimit (the throttle's
	// threshold in pages) are fixed by the params, so New computes
	// them once.
	maxPages, dirtyLimit int64

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
	maxPages := params.Capacity / params.PageSize
	return &Cache{
		eng:        e,
		params:     params,
		under:      under,
		chunks:     map[int64]*chunk{},
		maxPages:   maxPages,
		dirtyLimit: max(int64(float64(maxPages)*params.DirtyRatio), 1),
		rec:        telemetry.NewRecorder(e, "cache:"+params.Name, telemetry.LevelCache, 1),
	}
}

// scratch is the working memory of one cache call. A call can park in
// the device below (a write-out, a miss fetch) while another process
// enters the cache, so each call takes a scratch of its own off the
// cache's stack and returns it on exit.
type scratch struct {
	idxs []int64      // write-out victims' page indices
	runs []device.Run // missing page runs (in pages); ReadRuns turns them into device reads
}

// takeScratch pops a scratch off the cache's stack, or makes one when
// every scratch is held by a call still inside the cache. Only one
// process runs at a time, so the stack needs no lock.
func (c *Cache) takeScratch() *scratch {
	n := len(c.spare)
	if n == 0 {
		return &scratch{}
	}
	sc := c.spare[n-1]
	c.spare[n-1] = nil
	c.spare = c.spare[:n-1]
	return sc
}

// putScratch empties sc and pushes it back on the cache's stack.
func (c *Cache) putScratch(sc *scratch) {
	sc.idxs, sc.runs = sc.idxs[:0], sc.runs[:0]
	c.spare = append(c.spare, sc)
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
func (c *Cache) CachedBytes() int64 { return c.nPages * c.params.PageSize }

// DirtyBytes returns the dirty bytes awaiting write-back.
func (c *Cache) DirtyBytes() int64 { return c.nDirty * c.params.PageSize }

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

// pushDirty links pg at the head of the dirty list.
func (c *Cache) pushDirty(pg *page) {
	pg.dprev, pg.dnext = nil, c.dhead
	if c.dhead != nil {
		c.dhead.dprev = pg
	} else {
		c.dtail = pg
	}
	c.dhead = pg
}

// unlinkDirty removes pg from the dirty list.
func (c *Cache) unlinkDirty(pg *page) {
	if pg.dprev != nil {
		pg.dprev.dnext = pg.dnext
	} else {
		c.dhead = pg.dnext
	}
	if pg.dnext != nil {
		pg.dnext.dprev = pg.dprev
	} else {
		c.dtail = pg.dprev
	}
	pg.dprev, pg.dnext = nil, nil
}

// setClean marks pg clean and takes it off the dirty list.
func (c *Cache) setClean(pg *page) {
	pg.dirty = false
	c.nDirty--
	c.unlinkDirty(pg)
}

// touch moves pg to the MRU position, and a dirty pg to the dirty
// head too, which keeps the dirty list in LRU order.
func (c *Cache) touch(pg *page) {
	if c.head != pg {
		c.unlink(pg)
		c.pushFront(pg)
	}
	if pg.dirty && c.dhead != pg {
		c.unlinkDirty(pg)
		c.pushDirty(pg)
	}
}

// lookup returns the resident page for idx, or nil. The hint answers
// runs of neighbouring pages without a map lookup; after a miss it is
// idx's chunk if that exists, which put relies on.
func (c *Cache) lookup(idx int64) *page {
	ch := c.hint
	if ch == nil || ch.key != idx>>chunkShift {
		if ch = c.chunks[idx>>chunkShift]; ch == nil {
			return nil
		}
		c.hint = ch
	}
	return ch.pages[idx&(1<<chunkShift-1)]
}

// put enters pg into the page index; lookup(pg.idx) just missed.
func (c *Cache) put(pg *page) {
	ch := c.hint
	if ch == nil || ch.key != pg.idx>>chunkShift {
		if ch = c.freeCh; ch != nil {
			c.freeCh = ch.next
		} else {
			ch = &chunk{}
		}
		ch.key = pg.idx >> chunkShift
		c.chunks[ch.key] = ch
		c.hint = ch
	}
	ch.pages[pg.idx&(1<<chunkShift-1)] = pg
	ch.n++
	pg.ch = ch
	c.nPages++
}

// drop removes pg from the page index, freeing its chunk when that
// empties.
func (c *Cache) drop(pg *page) {
	ch := pg.ch
	ch.pages[pg.idx&(1<<chunkShift-1)] = nil
	c.nPages--
	if ch.n--; ch.n == 0 {
		delete(c.chunks, ch.key)
		c.hint = nil
		ch.next = c.freeCh
		c.freeCh = ch
	}
}

// newPage returns an unlinked clean page for idx, recycled from the
// free list. An empty free list is refilled with a block of up to a
// chunk's worth of pages, one allocation for all of them: every
// measurement unit fills fresh caches from empty.
func (c *Cache) newPage(idx int64) *page {
	if c.free == nil {
		block := make([]page, min(1<<chunkShift, c.maxPages))
		for i := range block[1:] {
			block[i].next = &block[i+1]
		}
		c.free = &block[0]
	}
	pg := c.free
	c.free = pg.next
	pg.idx = idx
	return pg
}

// release unlinks a resident page, drops it from the index and the
// dirty list, and recycles it. Callers must hold no other reference
// they expect to stay valid: the generation bump tells them it is gone.
func (c *Cache) release(pg *page) {
	if pg.dirty {
		c.setClean(pg)
	}
	c.unlink(pg)
	c.drop(pg)
	pg.gen++
	pg.next = c.free
	c.free = pg
}

// insert makes page idx resident, evicting as needed. Eviction of a
// dirty page synchronously writes it to the device.
func (c *Cache) insert(r *ioreq.Request, idx int64, dirty bool) {
	pg := c.lookup(idx)
	if pg == nil {
		for c.nPages >= c.maxPages {
			c.evictLRU(r)
		}
		// evictLRU may have slept (dirty write-back), letting another
		// process insert this very page meanwhile — re-check before
		// creating a duplicate (which would orphan an LRU entry).
		pg = c.lookup(idx)
	}
	if pg == nil {
		pg = c.newPage(idx)
		c.pushFront(pg)
		c.put(pg)
	}
	if dirty && !pg.dirty { // it joins the dirty head; touch matches
		pg.dirty = true
		c.nDirty++
		c.pushDirty(pg)
	}
	c.touch(pg)
}

func (c *Cache) evictLRU(r *ioreq.Request) {
	pg := c.tail
	if pg == nil {
		panic("cache: eviction with empty LRU")
	}
	gen := pg.gen
	c.Stats.Evictions++
	c.rec.Add(kEvictions, 1)
	if pg.dirty {
		c.Stats.DirtyEvict++
		c.rec.Add(kDirtyEvictions, 1)
		// Writing back a single page would be pathological on parity
		// arrays (one read-modify-write per 64 KB). Like the kernel
		// flusher, cluster the write-back: take the victim's whole
		// contiguous dirty neighbourhood in one I/O.
		sc := c.takeScratch()
		sc.idxs = append(sc.idxs, pg.idx)
		for i := pg.idx - 1; ; i-- {
			if n := c.lookup(i); n != nil && n.dirty {
				sc.idxs = append(sc.idxs, i)
			} else {
				break
			}
		}
		for i := pg.idx + 1; ; i++ {
			if n := c.lookup(i); n != nil && n.dirty {
				sc.idxs = append(sc.idxs, i)
			} else {
				break
			}
		}
		c.writeOut(r, sc.idxs)
		c.putScratch(sc)
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
		if pg := c.lookup(idx); pg != nil && pg.dirty {
			c.setClean(pg)
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
		c.rec.Add(kWritebackBytes, n)
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

// appendMissing touches the resident pages of [first, last) and
// appends its missing pages to dst as runs, in pages, reporting whether
// any page was missing. A missing page inside or just past dst's last
// run extends it, so ascending neighbouring ranges collect one run.
func (c *Cache) appendMissing(dst []device.Run, first, last int64) ([]device.Run, bool) {
	missed := false
	for idx := first; idx < last; idx++ {
		if pg := c.lookup(idx); pg != nil {
			c.touch(pg)
			continue
		}
		missed = true
		if k := len(dst) - 1; k >= 0 && dst[k].Off <= idx && idx <= dst[k].End() {
			dst[k].Len = max(dst[k].Len, idx+1-dst[k].Off)
		} else {
			dst = append(dst, device.Run{Off: idx, Len: 1})
		}
	}
	return dst, missed
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

	sc := c.takeScratch()
	defer c.putScratch(sc)
	sc.runs, _ = c.appendMissing(sc.runs, first, last)

	var missBytes int64
	for _, mr := range sc.runs {
		start, end := mr.Off, mr.Off+mr.Len
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
	c.rec.Add(kHitBytes, hitBytes)
	c.rec.Add(kMissBytes, min(missBytes, n))
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
	if c.nDirty <= c.dirtyLimit {
		return
	}
	c.Stats.ThrottleStalls++
	c.rec.Add(kThrottleStalls, 1)
	target := c.dirtyLimit / 2
	// Collect dirty pages from the LRU end (oldest first).
	sc := c.takeScratch()
	for pg := c.dtail; pg != nil && c.nDirty-int64(len(sc.idxs)) > target; pg = pg.dprev {
		sc.idxs = append(sc.idxs, pg.idx)
	}
	c.writeOut(r, sc.idxs)
	c.putScratch(sc)
}

// Flush implements device.BlockDev: write out every dirty page and
// flush the device below.
func (c *Cache) Flush(r *ioreq.Request) {
	r.PushOn(c.rec)
	defer r.Pop()
	defer r.Observe(telemetry.ClassMeta, 1, 0)
	sc := c.takeScratch()
	for pg := c.dhead; pg != nil; pg = pg.dnext {
		sc.idxs = append(sc.idxs, pg.idx)
	}
	c.writeOut(r, sc.idxs) // in page order: writeOut sorts
	c.putScratch(sc)
	c.under.Flush(r)
}

// DropCaches discards all clean pages and write-locks nothing — the
// simulation analogue of `echo 3 > /proc/sys/vm/drop_caches`, used to
// get cold-cache characterization runs. Dirty pages are written out
// first.
func (c *Cache) DropCaches(r *ioreq.Request) {
	c.Flush(r)
	// Release every page (not just reset the index), so an eviction
	// still in its write-out sees the generation change.
	for c.tail != nil {
		c.release(c.tail)
	}
}

// InvalidateRange drops all pages covering [off, off+n), discarding
// dirty data (callers use it for cache-coherence invalidation, where
// the remote copy is authoritative). It visits resident chunks, not
// the range: an NFS client invalidates a whole 1 TiB file slot.
func (c *Cache) InvalidateRange(off, n int64) {
	if n <= 0 {
		return
	}
	first, last := c.pageRange(off, n)
	for key, ch := range c.chunks {
		if key < first>>chunkShift || key > (last-1)>>chunkShift {
			continue
		}
		for i := range ch.pages {
			if pg := ch.pages[i]; pg != nil && pg.idx >= first && pg.idx < last {
				c.release(pg)
			}
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
