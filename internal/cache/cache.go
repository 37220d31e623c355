// Package cache models an operating-system page/buffer cache sitting
// between a filesystem and a block device. It implements LRU
// replacement, write-back with dirty throttling (the Linux
// dirty_ratio mechanism), write-through mode, and sequential
// read-ahead. The cache is itself a device.BlockDev so it stacks
// transparently over a disk or RAID array. Residency is per extent
// (node): inserts, touches, evictions and write-outs cost O(nodes), not
// O(pages), and Flush and throttling O(dirty nodes).
//
// The cache is what produces the paper's two headline cache effects:
// characterization runs use files of twice RAM so that the cache
// thrashes and measured rates reflect the device, while applications
// whose working set fits in RAM exceed the characterized rates
// (used percentage > 100%).
package cache

import (
	"fmt"
	"math/bits"
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

// node is a run of resident pages [lo, hi) in one index chunk, with one
// dirty state, next to each other in the LRU list in ascending order.
type node struct {
	lo, hi int64
	dirty  bool
	ch     *chunk   // the index chunk holding this node
	link   [2]links // in the LRU list and, while dirty, the dirty list
}

func (n *node) len() int64 { return n.hi - n.lo }

// links are a node's neighbours in one list: prev is more recent.
type links struct{ prev, next *node }

// The LRU list holds every node, the dirty list the dirty ones in order.
const (
	lru = iota
	dirtyList
)

// The index: directories of 64 chunks of 64 pages, and a 32-slot memo.
const (
	chunkShift = 6
	chunkMask  = 1<<chunkShift - 1
	recentBits = 5
)

// chunk indexes the nodes within 64 aligned pages: bit i of starts is
// set when nodes[i] starts at the chunk's page i. Empty chunks are freed.
type chunk struct {
	nodes  [1 << chunkShift]*node
	starts uint64
	dir    *dir   // the directory holding this chunk
	next   *chunk // free chain
}

// dir holds 64 consecutive chunks, bit i of present set while chunks[i]
// is. It stays once made, so chunks come and go without a map update.
type dir struct {
	chunks  [1 << chunkShift]*chunk
	present uint64
}

// memoSlot holds a directory key and its directory, nil for none.
type memoSlot struct {
	key int64
	d   *dir
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
	params   Params
	under    device.BlockDev
	dirs     map[int64]*dir                // the node index, keyed by idx >> 2*chunkShift
	recent   *[1 << recentBits]memoSlot    // dirs by a hash of the key, made on first use
	lists    [2]struct{ head, tail *node } // head: most recently used
	free     *node                         // released nodes, chained through link[lru].next
	made     int                           // nodes allocated (newNode)
	freeCh   *chunk                        // empty chunks, chained through next
	nPages   int64                         // resident pages
	nDirty   int64                         // dirty pages
	spare    []*scratch                    // scratch not held by a call (takeScratch)
	evicting []*scratch                    // of each evictLRU parked in a write-out

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
		params:     params,
		under:      under,
		dirs:       map[int64]*dir{},
		maxPages:   maxPages,
		dirtyLimit: max(int64(float64(maxPages)*params.DirtyRatio), 1),
		rec:        telemetry.NewRecorder(e, "cache:"+params.Name, telemetry.LevelCache, 1),
	}
}

// scratch is the working memory of one cache call: a call can park in
// the device while another enters the cache, so each takes its own.
type scratch struct {
	runs   []device.Run // page runs: missing (ReadAt, ReadRuns) or to write out
	out    []device.Run // writeOut's claimed page runs; WriteRuns' device runs
	victim int64        // evictLRU's victim page; -1 once released by another call
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
	sc.runs, sc.out = sc.runs[:0], sc.out[:0]
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

// link puts n into list l just ahead of (more recent than) at, or at
// the tail when at is nil.
func (c *Cache) link(l int, n, at *node) {
	ls := &c.lists[l]
	prev, older := ls.tail, &ls.tail
	if at != nil {
		prev, older = at.link[l].prev, &at.link[l].prev
	}
	newer := &ls.head
	if prev != nil {
		newer = &prev.link[l].next
	}
	n.link[l] = links{prev, at}
	*older, *newer = n, n
}

// unlink takes n out of list l.
func (c *Cache) unlink(l int, n *node) {
	nl := &n.link[l]
	newer, older := &c.lists[l].head, &c.lists[l].tail
	if nl.prev != nil {
		newer = &nl.prev.link[l].next
	}
	if nl.next != nil {
		older = &nl.next.link[l].prev
	}
	*newer, *older, *nl = nl.next, nl.prev, links{}
}

// memo returns directory dk's memo slot, refreshed from the map if it
// held another key (the zero slot is valid: no directory 0).
func (c *Cache) memo(dk int64) *memoSlot {
	if c.recent == nil {
		c.recent = new([1 << recentBits]memoSlot)
	}
	m := &c.recent[uint64(dk)*0x9E3779B97F4A7C15>>(64-recentBits)]
	if m.key != dk {
		m.key, m.d = dk, c.dirs[dk]
	}
	return m
}

// chunkOf returns the index chunk for page idx, or nil.
func (c *Cache) chunkOf(idx int64) *chunk {
	if d := c.memo(idx >> (2 * chunkShift)).d; d != nil {
		return d.chunks[idx>>chunkShift&chunkMask]
	}
	return nil
}

// locate returns the node holding page idx or, when idx is missing,
// nil and where the missing run from idx ends, capped at limit. It
// skips absent chunks a directory at a time.
func (c *Cache) locate(idx, limit int64) (*node, int64) {
	above := ^uint64(0) << (idx&chunkMask + 1)
	if ch := c.chunkOf(idx); ch != nil {
		if below := ch.starts &^ above; below != 0 {
			if n := ch.nodes[bits.Len64(below)-1]; idx < n.hi {
				return n, idx
			}
		}
		if ch.starts&above != 0 {
			return nil, min(limit, idx&^chunkMask+int64(bits.TrailingZeros64(ch.starts&above)))
		}
	}
	for key := idx>>chunkShift + 1; key<<chunkShift < limit; key++ {
		d := c.memo(key >> chunkShift).d
		if d == nil || d.present>>(key&chunkMask) == 0 {
			key |= chunkMask
			continue
		}
		key += int64(bits.TrailingZeros64(d.present >> (key & chunkMask)))
		return nil, min(limit, key<<chunkShift+int64(bits.TrailingZeros64(d.chunks[key&chunkMask].starts)))
	}
	return nil, limit
}

// find returns the node holding page idx, or nil.
func (c *Cache) find(idx int64) *node {
	n, _ := c.locate(idx, idx)
	return n
}

// index enters n into its chunk, which it takes from the free chain or
// makes when missing, as it makes a missing directory.
func (c *Cache) index(n *node) {
	ch := c.chunkOf(n.lo)
	if ch == nil {
		m := c.memo(n.lo >> (2 * chunkShift))
		if m.d == nil {
			m.d = new(dir)
			c.dirs[m.key] = m.d
		}
		if ch = c.freeCh; ch != nil {
			c.freeCh = ch.next
		} else {
			ch = &chunk{}
		}
		ch.dir = m.d
		m.d.chunks[n.lo>>chunkShift&chunkMask] = ch
		m.d.present |= 1 << (n.lo >> chunkShift & chunkMask)
	}
	ch.nodes[n.lo&chunkMask] = n
	ch.starts |= 1 << (n.lo & chunkMask)
	n.ch = ch
}

// remove takes n out of both lists and the index, and recycles it.
func (c *Cache) remove(n *node) {
	if n.dirty {
		c.unlink(dirtyList, n)
		c.nDirty -= n.len()
	}
	c.unlink(lru, n)
	c.nPages -= n.len()
	ch := n.ch
	ch.nodes[n.lo&chunkMask] = nil
	if ch.starts &^= 1 << (n.lo & chunkMask); ch.starts == 0 {
		ch.dir.chunks[n.lo>>chunkShift&chunkMask] = nil
		ch.dir.present &^= 1 << (n.lo >> chunkShift & chunkMask)
		ch.next, c.freeCh = c.freeCh, ch
	}
	n.link[lru].next, c.free = c.free, n
}

// newNode returns an unlinked, unindexed node off the free list, which
// it refills with a block as large as the nodes made so far, at most 64.
func (c *Cache) newNode(lo, hi int64, dirty bool) *node {
	if c.free == nil {
		block := make([]node, min(max(c.made, 1), 64))
		c.made += len(block)
		for i := range block[1:] {
			block[i].link[lru].next = &block[i+1]
		}
		c.free = &block[0]
	}
	n := c.free
	c.free = n.link[lru].next
	*n = node{lo: lo, hi: hi, dirty: dirty}
	return n
}

// split cuts n at page at: n keeps [lo, at), and the node returned,
// one step more recent in both lists, takes [at, hi).
func (c *Cache) split(n *node, at int64) *node {
	m := c.newNode(at, n.hi, n.dirty)
	n.hi = at
	c.link(lru, m, n)
	if n.dirty {
		c.link(dirtyList, m, n)
	}
	c.index(m)
	return m
}

// isolate splits n so that one node holds exactly its pages [a, b),
// and returns that node.
func (c *Cache) isolate(n *node, a, b int64) *node {
	if a > n.lo {
		n = c.split(n, a)
	}
	if b < n.hi {
		c.split(n, b)
	}
	return n
}

// drop takes the pages [a, b) out of n, shrinking n in place for a prefix.
func (c *Cache) drop(n *node, a, b int64) {
	if a > n.lo || b == n.hi {
		c.remove(c.isolate(n, a, b))
		return
	}
	c.nPages -= b - a
	if n.dirty {
		c.nDirty -= b - a
	}
	n.ch.nodes[a&chunkMask], n.ch.nodes[b&chunkMask] = nil, n
	n.ch.starts ^= 1<<(a&chunkMask) | 1<<(b&chunkMask)
	n.lo = b
}

// release evicts, drops or invalidates the pages [a, b) of n, telling a
// parked evictLRU whose victim is among them.
func (c *Cache) release(n *node, a, b int64) {
	for _, sc := range c.evicting {
		if a <= sc.victim && sc.victim < b {
			sc.victim = -1
		}
	}
	c.drop(n, a, b)
}

// pushRun makes the missing pages [a, b) the most recent, extending the
// head node where it ends at a in the same chunk and dirty state.
func (c *Cache) pushRun(a, b int64, dirty bool) {
	c.nPages += b - a
	if dirty {
		c.nDirty += b - a
	}
	for a < b {
		e := min(b, (a>>chunkShift+1)<<chunkShift)
		if h := c.lists[lru].head; h != nil && h.hi == a && h.dirty == dirty && a&chunkMask != 0 {
			h.hi = e
		} else {
			n := c.newNode(a, e, dirty)
			c.pushFront(n)
			c.index(n)
		}
		a = e
	}
}

// touch moves the pages [a, b) of n to the MRU end, dirtying them when
// dirty, as touching them one by one upwards does.
func (c *Cache) touch(n *node, a, b int64, dirty bool) {
	dirty = dirty || n.dirty
	if n == c.lists[lru].head && b == n.hi && dirty == n.dirty {
		return // already the most recent pages, in this order
	}
	if a > n.lo || b < n.hi {
		c.drop(n, a, b)
		c.pushRun(a, b, dirty)
		return
	}
	c.unlink(lru, n) // the whole node moves, still indexed
	if n.dirty {
		c.unlink(dirtyList, n)
	} else if dirty {
		c.nDirty += n.len()
	}
	n.dirty = dirty
	c.pushFront(n)
}

// pushFront links n at the MRU end of both lists it belongs to.
func (c *Cache) pushFront(n *node) {
	c.link(lru, n, c.lists[lru].head)
	if n.dirty {
		c.link(dirtyList, n, c.lists[dirtyList].head)
	}
}

// insert makes the pages [first, last) resident and most recent, as
// inserting them one by one does: a resident page is touched, and a
// missing page first evicts the LRU page while the cache is full. Clean
// victims go a node at a time; a dirty one's write-out sleeps.
func (c *Cache) insert(r *ioreq.Request, first, last int64, dirty bool) {
	for idx := first; idx < last; {
		t, room := c.lists[lru].tail, c.maxPages-c.nPages
		full := room <= 0
		if full {
			room = t.len()
		}
		n, end := c.locate(idx, min(last, idx+room))
		switch {
		case n != nil:
			end = min(n.hi, last)
			c.touch(n, idx, end, dirty)
		case full && t.dirty:
			for c.nPages >= c.maxPages {
				c.evictLRU(r)
			}
			// The write-out may have let another process insert idx.
			if end = idx; c.find(idx) == nil {
				end = idx + 1
				c.pushRun(idx, end, dirty)
			}
		default:
			if full {
				c.Stats.Evictions += end - idx
				c.rec.Add(kEvictions, end-idx)
				c.release(t, t.lo, t.lo+end-idx)
			}
			c.pushRun(idx, end, dirty)
		}
		idx = end
	}
}

// evictLRU evicts the LRU page.
func (c *Cache) evictLRU(r *ioreq.Request) {
	t := c.lists[lru].tail
	c.Stats.Evictions++
	c.rec.Add(kEvictions, 1)
	if !t.dirty {
		c.release(t, t.lo, t.lo+1)
		return
	}
	c.Stats.DirtyEvict++
	c.rec.Add(kDirtyEvictions, 1)
	// Writing back a single page would be pathological on parity
	// arrays (one read-modify-write per 64 KB). Like the kernel
	// flusher, cluster the write-back: take the victim's whole
	// contiguous dirty neighbourhood in one I/O.
	a, b := t.lo, t.hi
	for n := c.find(a - 1); n != nil && n.dirty; n = c.find(a - 1) {
		a = n.lo
	}
	for n := c.find(b); n != nil && n.dirty; n = c.find(b) {
		b = n.hi
	}
	sc := c.takeScratch()
	sc.victim = t.lo
	sc.runs = append(sc.runs, device.Run{Off: a, Len: b - a})
	c.evicting = append(c.evicting, sc)
	c.writeOut(r, sc)
	c.evicting = slices.DeleteFunc(c.evicting, func(e *scratch) bool { return e == sc })
	// The write-out may have slept and let another process release the
	// victim (-1). If not, release it, touched meanwhile or not.
	if sc.victim >= 0 {
		c.release(c.find(sc.victim), sc.victim, sc.victim+1)
	}
	c.putScratch(sc)
}

// writeOut writes the dirty pages of the page runs sc.runs, merged, to
// the device. Pages are claimed — marked clean — *before* the writes
// are issued, like the kernel's PG_writeback flag: a concurrent flusher
// must not write them again. Pages re-dirtied meanwhile wait a flush.
func (c *Cache) writeOut(r *ioreq.Request, sc *scratch) {
	for _, run := range sc.runs {
		for idx := run.Off; idx < run.End(); {
			n, e := c.locate(idx, run.End())
			if n == nil {
				idx = e
				continue
			}
			e = min(n.hi, run.End())
			if n.dirty {
				m := c.isolate(n, idx, e)
				m.dirty = false
				c.unlink(dirtyList, m)
				c.nDirty -= e - idx
				sc.out = append(sc.out, device.Run{Off: idx, Len: e - idx})
			}
			idx = e
		}
	}
	ioreq.Sort(sc.out)
	ps := c.params.PageSize
	for _, run := range ioreq.Merge(sc.out) {
		off := run.Off * ps
		n := min(run.Len*ps, c.under.Capacity()-off)
		c.under.WriteAt(r, off, n)
		c.Stats.WriteBackBytes += n
		c.rec.Add(kWritebackBytes, n)
	}
}

// pageRange returns the first and one-past-last page index covering
// [off, off+n).
func (c *Cache) pageRange(off, n int64) (int64, int64) {
	shift := bits.TrailingZeros64(uint64(c.params.PageSize))
	return off >> shift, (off + n + c.params.PageSize - 1) >> shift
}

// appendMissing touches the resident pages of [first, last) and appends
// its missing page runs to dst, extending dst's last run where they
// start inside or just past it, and reports whether any was missing.
func (c *Cache) appendMissing(dst []device.Run, first, last int64) ([]device.Run, bool) {
	missed := false
	for idx := first; idx < last; {
		n, e := c.locate(idx, last)
		if n != nil {
			e = min(n.hi, last)
			c.touch(n, idx, e, false)
			idx = e
			continue
		}
		missed = true
		if k := len(dst) - 1; k >= 0 && dst[k].Off <= idx && idx <= dst[k].End() {
			dst[k].Len = max(dst[k].Len, e-dst[k].Off)
		} else {
			dst = append(dst, device.Run{Off: idx, Len: e - idx})
		}
		idx = e
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
		c.insert(r, start, end+extra, false)
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
		c.insert(r, first, last, false)
		c.under.WriteAt(r, off, n)
		return
	}

	c.insert(r, first, last, true)
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
	// Collect dirty pages from the LRU end (oldest first).
	sc := c.takeScratch()
	for n, left := c.lists[dirtyList].tail, c.nDirty-c.dirtyLimit/2; n != nil && left > 0; n = n.link[dirtyList].prev {
		k := min(n.len(), left)
		sc.runs = append(sc.runs, device.Run{Off: n.lo, Len: k})
		left -= k
	}
	c.writeOut(r, sc)
	c.putScratch(sc)
}

// Flush implements device.BlockDev: write out every dirty page and
// flush the device below.
func (c *Cache) Flush(r *ioreq.Request) {
	r.PushOn(c.rec)
	defer r.Pop()
	defer r.Observe(telemetry.ClassMeta, 1, 0)
	sc := c.takeScratch()
	for n := c.lists[dirtyList].head; n != nil; n = n.link[dirtyList].next {
		sc.runs = append(sc.runs, device.Run{Off: n.lo, Len: n.len()})
	}
	c.writeOut(r, sc) // in page order: writeOut sorts
	c.putScratch(sc)
	c.under.Flush(r)
}

// DropCaches discards all clean pages and write-locks nothing — the
// simulation analogue of `echo 3 > /proc/sys/vm/drop_caches`, used to
// get cold-cache characterization runs. Dirty pages are written out
// first.
func (c *Cache) DropCaches(r *ioreq.Request) {
	c.Flush(r)
	for t := c.lists[lru].tail; t != nil; t = c.lists[lru].tail {
		c.release(t, t.lo, t.hi)
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
	for dk, d := range c.dirs {
		if dk < first>>(2*chunkShift) || dk > (last-1)>>(2*chunkShift) {
			continue
		}
		for present := d.present; present != 0; present &= present - 1 {
			ch := d.chunks[bits.TrailingZeros64(present)]
			// Releasing splits off only nodes outside the range.
			for starts := ch.starts; starts != 0; starts &= starts - 1 {
				nd := ch.nodes[bits.TrailingZeros64(starts)]
				if a, b := max(nd.lo, first), min(nd.hi, last); a < b {
					c.release(nd, a, b)
				}
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
	c.insert(r, first, last, false)
}
