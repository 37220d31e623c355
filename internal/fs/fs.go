// Package fs models a local filesystem (ext4-like) mounted over a
// block device stack, and defines Interface — the filesystem contract
// consumed by the I/O library (mpiio), the benchmark drivers and the
// NFS layer. A Mount performs extent allocation, charges metadata and
// syscall costs, and forwards data traffic to the device below it
// (normally a cache.Cache over a raid.Array or device.Disk).
package fs

import (
	"errors"
	"fmt"
	"sort"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// Open flags.
const (
	ORead   = 1 << iota // open for reading
	OWrite              // open for writing
	OCreate             // create if absent
	OTrunc              // truncate to zero length
)

// ErrNotExist is returned when opening a non-existent file without
// OCreate, or stating/removing a missing path.
var ErrNotExist = errors.New("fs: file does not exist")

// IOVec describes one operation of a vectored request. It is an alias
// of ioreq.Vec, so vectors pass between the library, filesystem and
// device layers without conversion.
type IOVec = ioreq.Vec

// FileInfo is the result of Stat.
type FileInfo struct {
	Path string
	Size int64
}

// Handle is an open file.
type Handle interface {
	// ReadAt reads n bytes at off, returning the bytes actually read
	// (short at EOF).
	ReadAt(r *ioreq.Request, off, n int64) int64
	// WriteAt writes n bytes at off, extending the file as needed.
	WriteAt(r *ioreq.Request, off, n int64) int64
	// ReadVec and WriteVec perform many operations in one call,
	// charging per-operation costs for each element. They exist so
	// workloads with millions of small strided accesses (NAS BT-IO
	// "simple") can be simulated without one simulation event per call.
	ReadVec(r *ioreq.Request, vecs []IOVec) int64
	WriteVec(r *ioreq.Request, vecs []IOVec) int64
	// Size returns the current file size.
	Size() int64
	// Sync flushes the file's dirty data to stable storage.
	Sync(r *ioreq.Request)
	// Close releases the handle (and for NFS flushes, per
	// close-to-open semantics).
	Close(r *ioreq.Request)
	// Path returns the file's path.
	Path() string
}

// Interface is a mounted filesystem as seen by applications: the local
// Mount and the NFS client both implement it.
type Interface interface {
	Open(r *ioreq.Request, path string, flags int) (Handle, error)
	Remove(r *ioreq.Request, path string) error
	Stat(r *ioreq.Request, path string) (FileInfo, error)
	// Sync flushes all dirty data on this filesystem.
	Sync(r *ioreq.Request)
	Name() string
}

// MountParams configures a local filesystem.
type MountParams struct {
	Name      string
	BlockSize int64 // allocation unit, power of two (ext4: 4 KiB)

	// MetaOpCost is charged per metadata operation (open, create,
	// stat, remove, close), covering directory lookup and journal
	// commit amortization.
	MetaOpCost sim.Duration

	// SyscallCost is charged per read/write call (VFS entry, argument
	// checking, page lookup setup). It bounds small-block throughput.
	SyscallCost sim.Duration
}

// DefaultMountParams returns ext4-like parameters.
func DefaultMountParams(name string) MountParams {
	return MountParams{
		Name:        name,
		BlockSize:   4 << 10,
		MetaOpCost:  100 * sim.Microsecond,
		SyscallCost: 2 * sim.Microsecond,
	}
}

type extent struct {
	logOff, physOff, length int64
}

type fileData struct {
	path    string
	size    int64
	extents []extent // sorted by logOff
	opens   int
}

// Mount is a local filesystem on a block device.
type Mount struct {
	eng    *sim.Engine
	params MountParams
	dev    device.BlockDev

	files    map[string]*fileData
	nextFree int64
	freeList []extent // physOff/length used; logOff ignored

	rec *telemetry.Recorder
}

var _ Interface = (*Mount)(nil)

// NewMount formats a filesystem over dev.
func NewMount(e *sim.Engine, params MountParams, dev device.BlockDev) *Mount {
	if params.BlockSize <= 0 || params.BlockSize&(params.BlockSize-1) != 0 {
		panic(fmt.Sprintf("fs %q: block size %d not a power of two", params.Name, params.BlockSize))
	}
	return &Mount{
		eng:    e,
		params: params,
		dev:    dev,
		files:  map[string]*fileData{},
		rec:    telemetry.NewRecorder(e, "fs:"+params.Name, telemetry.LevelLocalFS, 1),
	}
}

// Telemetry returns the mount's telemetry probe.
func (m *Mount) Telemetry() *telemetry.Recorder { return m.rec }

// Name implements Interface.
func (m *Mount) Name() string { return m.params.Name }

// Params returns the mount configuration.
func (m *Mount) Params() MountParams { return m.params }

// allocate returns a physical extent of exactly n bytes (block
// aligned), preferring the free list (first fit) then the bump
// allocator.
func (m *Mount) allocate(n int64) extent {
	bs := m.params.BlockSize
	n = (n + bs - 1) / bs * bs
	for i, fe := range m.freeList {
		if fe.length >= n {
			out := extent{physOff: fe.physOff, length: n}
			if fe.length == n {
				m.freeList = append(m.freeList[:i], m.freeList[i+1:]...)
			} else {
				m.freeList[i].physOff += n
				m.freeList[i].length -= n
			}
			return out
		}
	}
	if m.nextFree+n > m.dev.Capacity() {
		panic(fmt.Sprintf("fs %q: out of space (want %d, free %d)",
			m.params.Name, n, m.dev.Capacity()-m.nextFree))
	}
	out := extent{physOff: m.nextFree, length: n}
	m.nextFree += n
	return out
}

// Open implements Interface.
func (m *Mount) Open(r *ioreq.Request, path string, flags int) (Handle, error) {
	r.PushOn(m.rec)
	defer r.Pop()
	defer r.Observe(telemetry.ClassMeta, 1, 0)
	p := r.Proc()
	p.Sleep(m.params.MetaOpCost)
	f, ok := m.files[path]
	if !ok {
		if flags&OCreate == 0 {
			return nil, fmt.Errorf("open %q: %w", path, ErrNotExist)
		}
		p.Sleep(m.params.MetaOpCost) // inode allocation + journal
		f = &fileData{path: path}
		m.files[path] = f
	} else if flags&OTrunc != 0 {
		m.truncate(f)
	}
	f.opens++
	return &localHandle{m: m, f: f}, nil
}

func (m *Mount) truncate(f *fileData) {
	for _, e := range f.extents {
		m.freeList = append(m.freeList, extent{physOff: e.physOff, length: e.length})
	}
	f.extents = nil
	f.size = 0
}

// Remove implements Interface.
func (m *Mount) Remove(r *ioreq.Request, path string) error {
	r.PushOn(m.rec)
	defer r.Pop()
	m.rec.Observe(telemetry.ClassMeta, 1, 0, m.params.MetaOpCost)
	r.Proc().Sleep(m.params.MetaOpCost)
	f, ok := m.files[path]
	if !ok {
		return fmt.Errorf("remove %q: %w", path, ErrNotExist)
	}
	m.truncate(f)
	delete(m.files, path)
	return nil
}

// Stat implements Interface.
func (m *Mount) Stat(r *ioreq.Request, path string) (FileInfo, error) {
	r.PushOn(m.rec)
	defer r.Pop()
	m.rec.Observe(telemetry.ClassMeta, 1, 0, m.params.MetaOpCost)
	r.Proc().Sleep(m.params.MetaOpCost)
	f, ok := m.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("stat %q: %w", path, ErrNotExist)
	}
	return FileInfo{Path: path, Size: f.size}, nil
}

// Sync implements Interface: flush the whole device stack (page cache
// write-back plus device cache).
func (m *Mount) Sync(r *ioreq.Request) {
	r.PushOn(m.rec)
	defer r.Pop()
	m.dev.Flush(r)
}

// ensureAllocated grows f's extents to cover [0, size).
func (m *Mount) ensureAllocated(f *fileData, size int64) {
	allocated := int64(0)
	if n := len(f.extents); n > 0 {
		last := f.extents[n-1]
		allocated = last.logOff + last.length
	}
	if size <= allocated {
		return
	}
	e := m.allocate(size - allocated)
	e.logOff = allocated
	// Merge with previous extent if physically adjacent (the common
	// streaming-append case under the bump allocator).
	if n := len(f.extents); n > 0 {
		last := &f.extents[n-1]
		if last.physOff+last.length == e.physOff {
			last.length += e.length
			return
		}
	}
	f.extents = append(f.extents, e)
}

// appendRange appends the physical extents of a logical range to dst
// and returns the extended slice.
func (f *fileData) appendRange(dst []ioreq.Vec, off, n int64) []ioreq.Vec {
	i := sort.Search(len(f.extents), func(i int) bool {
		e := f.extents[i]
		return e.logOff+e.length > off
	})
	for ; i < len(f.extents) && n > 0; i++ {
		e := f.extents[i]
		if off < e.logOff {
			panic(fmt.Sprintf("fs: hole in file %q at %d", f.path, off))
		}
		within := off - e.logOff
		take := e.length - within
		if take > n {
			take = n
		}
		dst = append(dst, ioreq.Vec{Off: e.physOff + within, Len: take})
		off += take
		n -= take
	}
	if n > 0 {
		panic(fmt.Sprintf("fs: range beyond allocation in %q (short %d)", f.path, n))
	}
	return dst
}

type localHandle struct {
	m      *Mount
	f      *fileData
	closed bool
}

func (h *localHandle) Path() string { return h.f.path }
func (h *localHandle) Size() int64  { return h.f.size }

func (h *localHandle) check() {
	if h.closed {
		panic(fmt.Sprintf("fs: use of closed handle %q", h.f.path))
	}
}

func (h *localHandle) ReadAt(r *ioreq.Request, off, n int64) int64 {
	h.check()
	r.Enter(h.m.rec)
	defer r.Exit()
	p := r.Proc()
	p.Sleep(h.m.params.SyscallCost)
	if off >= h.f.size {
		r.Observe(telemetry.ClassRead, 1, 0)
		return 0
	}
	if off+n > h.f.size {
		n = h.f.size - off
	}
	var buf [4]ioreq.Vec // most ranges map to one extent: no allocation
	for _, piece := range h.f.appendRange(buf[:0], off, n) {
		h.m.dev.ReadAt(r, piece.Off, piece.Len)
	}
	r.Observe(telemetry.ClassRead, 1, n)
	return n
}

func (h *localHandle) WriteAt(r *ioreq.Request, off, n int64) int64 {
	h.check()
	r.Enter(h.m.rec)
	defer r.Exit()
	p := r.Proc()
	p.Sleep(h.m.params.SyscallCost)
	if n == 0 {
		r.Observe(telemetry.ClassWrite, 1, 0)
		return 0
	}
	h.m.ensureAllocated(h.f, off+n)
	var buf [4]ioreq.Vec
	for _, piece := range h.f.appendRange(buf[:0], off, n) {
		h.m.dev.WriteAt(r, piece.Off, piece.Len)
	}
	if off+n > h.f.size {
		h.f.size = off + n
	}
	r.Observe(telemetry.ClassWrite, 1, n)
	return n
}

// ReadVec services many reads in one call: per-operation syscall cost
// is charged in a single sleep and the data traffic goes to the device
// as one vectored request, so simulating millions of small strided
// operations stays tractable.
func (h *localHandle) ReadVec(r *ioreq.Request, vecs []IOVec) int64 {
	h.check()
	if len(vecs) == 0 {
		return 0
	}
	r.Enter(h.m.rec)
	defer r.Exit()
	p := r.Proc()
	p.Sleep(h.m.params.SyscallCost * sim.Duration(len(vecs)))
	runs := make([]device.Run, 0, len(vecs))
	var total int64
	for _, v := range vecs {
		off, n := v.Off, v.Len
		if off >= h.f.size {
			continue
		}
		if off+n > h.f.size {
			n = h.f.size - off
		}
		runs = h.f.appendRange(runs, off, n)
		total += n
	}
	device.ReadRuns(r, h.m.dev, runs)
	r.Observe(telemetry.ClassRead, int64(len(vecs)), total)
	return total
}

// WriteVec is the vectored counterpart of WriteAt; see ReadVec.
func (h *localHandle) WriteVec(r *ioreq.Request, vecs []IOVec) int64 {
	h.check()
	if len(vecs) == 0 {
		return 0
	}
	r.Enter(h.m.rec)
	defer r.Exit()
	p := r.Proc()
	p.Sleep(h.m.params.SyscallCost * sim.Duration(len(vecs)))
	maxEnd := h.f.size
	for _, v := range vecs {
		if end := v.Off + v.Len; end > maxEnd {
			maxEnd = end
		}
	}
	h.m.ensureAllocated(h.f, maxEnd)
	runs := make([]device.Run, 0, len(vecs))
	var total int64
	for _, v := range vecs {
		if v.Len == 0 {
			continue
		}
		runs = h.f.appendRange(runs, v.Off, v.Len)
		total += v.Len
	}
	device.WriteRuns(r, h.m.dev, runs)
	// Monotonic update: a concurrent WriteVec extending the file
	// further may have completed while this one slept in the device.
	if maxEnd > h.f.size {
		h.f.size = maxEnd
	}
	r.Observe(telemetry.ClassWrite, int64(len(vecs)), total)
	return total
}

func (h *localHandle) Sync(r *ioreq.Request) {
	h.check()
	r.PushOn(h.m.rec)
	defer r.Pop()
	h.m.dev.Flush(r)
}

func (h *localHandle) Close(r *ioreq.Request) {
	h.check()
	r.PushOn(h.m.rec)
	defer r.Pop()
	h.closed = true
	h.f.opens--
	h.m.rec.Observe(telemetry.ClassMeta, 1, 0, h.m.params.MetaOpCost/2)
	r.Proc().Sleep(h.m.params.MetaOpCost / 2)
}
