package nfs

import (
	"fmt"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
)

// Client-side data caching.
//
// A real NFS client caches file data in its page cache under
// close-to-open consistency: pages are valid as long as the file's
// attributes have not changed since they were fetched, and validity
// is re-checked at open time. MPI-IO (ROMIO) disables this cache —
// via byte-range locking — whenever a file is opened by a
// communicator with more than one process, because close-to-open is
// too weak for concurrently shared files. The mpiio layer therefore
// switches handles of shared files to direct I/O (SetDirectIO);
// single-process opens (e.g. MADbench2 UNIQUE file-per-process) keep
// the cache, which is what lets the paper's 64-process UNIQUE reads
// run "on buffer/cache and not physically on the disk".
//
// The cache is implemented as a cache.Cache over a virtual address
// space in which every path gets a fixed-size slot; the device under
// it turns page fetches into read RPCs.

// slotBytes is the virtual address-space slot per cached file. Files
// larger than a slot simply bypass the cache beyond it (none of the
// workloads approach it).
const slotBytes = int64(1) << 40

// clientDev adapts the RPC path to device.BlockDev for the cache.
type clientDev struct {
	c *Client
}

var _ device.BlockDev = (*clientDev)(nil)

func (d *clientDev) Name() string         { return d.c.params.Name + ":remote" }
func (d *clientDev) Capacity() int64      { return slotBytes * (1 << 20) }
func (d *clientDev) Flush(*ioreq.Request) {}

// ReadAt fetches a virtual range via read RPCs against the slot's
// server handle, clamped to the current file size.
func (d *clientDev) ReadAt(r *ioreq.Request, off, n int64) {
	c := d.c
	slot := off / slotBytes
	path, ok := c.slotPaths[slot]
	if !ok {
		panic(fmt.Sprintf("nfs %q: read from unmapped cache slot %d", c.params.Name, slot))
	}
	h, ok := c.srv.handles[path]
	if !ok {
		panic(fmt.Sprintf("nfs %q: cached path %q has no server handle", c.params.Name, path))
	}
	foff := off % slotBytes
	if foff >= h.Size() {
		return
	}
	if foff+n > h.Size() {
		n = h.Size() - foff
	}
	c.rpcRead(r, h, foff, n)
}

// WriteAt flushes dirty client pages: UNSTABLE write RPCs in WSize
// chunks (the commit happens at Sync/Close), clamped to the written
// extent of the file.
func (d *clientDev) WriteAt(r *ioreq.Request, off, n int64) {
	c := d.c
	slot := off / slotBytes
	path, ok := c.slotPaths[slot]
	if !ok {
		panic(fmt.Sprintf("nfs %q: write-back from unmapped cache slot %d", c.params.Name, slot))
	}
	h, ok := c.srv.handles[path]
	if !ok {
		panic(fmt.Sprintf("nfs %q: cached path %q has no server handle", c.params.Name, path))
	}
	foff := off % slotBytes
	// Page-granular flushing may overhang the written extent; clamp.
	if end := c.sizes[path]; foff+n > end {
		if foff >= end {
			return
		}
		n = end - foff
	}
	c.rpcWriteUnstable(r, h, foff, n)
	c.srv.gen[path]++
	c.validGen[path] = c.srv.gen[path]
}

// slot returns (mapping if needed) the cache slot of a path.
func (c *Client) slot(path string) int64 {
	if s, ok := c.pathSlots[path]; ok {
		return s
	}
	s := int64(len(c.pathSlots))
	c.pathSlots[path] = s
	c.slotPaths[s] = path
	return s
}

// cacheBase returns the data-cache address of the handle's file,
// mapping its slot on the first cached access.
func (h *remoteHandle) cacheBase() int64 {
	if h.slot < 0 {
		h.slot = h.c.slot(h.path)
	}
	return h.slot * slotBytes
}

// revalidate implements close-to-open consistency: called at open
// time, it drops the path's cached pages when the server-side change
// generation moved since this client last validated.
func (c *Client) revalidate(path string) {
	if c.dataCache == nil {
		return
	}
	gen := c.srv.gen[path]
	if last, ok := c.validGen[path]; ok && last == gen {
		return
	}
	c.invalidatePath(path)
	c.validGen[path] = gen
}

// invalidatePath drops all cached pages of one path.
func (c *Client) invalidatePath(path string) {
	s, ok := c.pathSlots[path]
	if !ok {
		return
	}
	base := s * slotBytes
	c.dataCache.InvalidateRange(base, slotBytes)
}

// noteOwnWrite keeps the writer's own cache valid: the server
// generation advanced because of us, so re-sync the validation mark.
// If another client wrote in between, its data is picked up at the
// next open — exactly NFS close-to-open staleness.
func (c *Client) noteOwnWrite(path string) {
	if c.dataCache == nil {
		return
	}
	c.validGen[path] = c.srv.gen[path]
}

// DropCaches empties the client's data cache (characterization runs
// use it to measure cold paths).
func (c *Client) DropCaches(r *ioreq.Request) {
	if c.dataCache != nil {
		c.dataCache.DropCaches(r)
		c.validGen = map[string]int64{}
	}
}

// cachedRead serves a read through the client cache; returns false if
// the handle must fall back to direct RPCs.
func (h *remoteHandle) cachedRead(r *ioreq.Request, off, n int64) (int64, bool) {
	c := h.c
	if c.dataCache == nil || h.direct {
		return 0, false
	}
	size := h.Size() // client view: includes write-behind data
	if off >= size {
		return 0, true
	}
	if off+n > size {
		n = size - off
	}
	if off+n > slotBytes {
		return 0, false // beyond the slot: bypass
	}
	base := h.cacheBase()
	c.dataCache.ReadAt(r, base+off, n)
	return n, true
}

// cachedWrite absorbs a write into the client cache (write-behind):
// pages are dirtied and flushed by throttling, Sync or Close — the
// behaviour of a buffered write() on a real NFS mount. Returns false
// when the handle must fall back to synchronous RPCs.
func (h *remoteHandle) cachedWrite(r *ioreq.Request, off, n int64) (int64, bool) {
	c := h.c
	if c.dataCache == nil || h.direct || off+n > slotBytes {
		return 0, false
	}
	if end := off + n; end > c.sizes[h.path] {
		c.sizes[h.path] = end
	}
	base := h.cacheBase()
	c.dataCache.WriteAt(r, base+off, n)
	c.noteOwnWrite(h.path)
	delete(c.attrCache, h.path)
	return n, true
}

// flushAndCommit writes out the client's dirty pages and issues a
// COMMIT (close-to-open flush-on-close / fsync semantics).
func (h *remoteHandle) flushAndCommit(r *ioreq.Request) {
	c := h.c
	if c.dataCache == nil || h.direct {
		return
	}
	c.dataCache.Flush(r)
	c.srv.commit(r.Proc(), 1)
}

// SetDirectIO disables client-side caching for this handle (used by
// the MPI-IO layer for concurrently shared files). Dirty data
// buffered before the switch is not flushed — callers switch modes
// immediately after open.
func (h *remoteHandle) SetDirectIO(direct bool) { h.direct = direct }
