package mpiio

import (
	"fmt"
	"slices"
	"sort"

	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// Hints configures collective buffering, mirroring the ROMIO hints
// the paper's MPICH library exposes.
type Hints struct {
	// CollectiveBuffering enables two-phase I/O for *All operations.
	// When false, collective calls degrade to independent operations
	// (the behaviour NAS BT-IO "simple" exhibits).
	CollectiveBuffering bool
	// CBNodes is the number of aggregator ranks (cb_nodes); zero
	// defaults to one aggregator per distinct node.
	CBNodes int
	// CBBufferSize is the aggregator staging buffer (cb_buffer_size);
	// aggregator writes are issued in chunks of this size. Zero
	// defaults to 16 MiB.
	CBBufferSize int64
}

// DefaultHints enables collective buffering with ROMIO defaults.
func DefaultHints() Hints {
	return Hints{CollectiveBuffering: true, CBBufferSize: 16 << 20}
}

// ByteRangeLocker is implemented by filesystems on which MPI-IO must
// bracket operations with byte-range locks for shared-file
// consistency (the NFS client). The File charges one lock/unlock pair
// per application operation on such mounts — a large part of the
// "simple subtype" penalty the paper measures. Files opened by a
// single process need no locks.
type ByteRangeLocker interface {
	LockUnlock(r *ioreq.Request, count int64)
}

// DirectIOSetter is implemented by handles whose client-side data
// cache can be bypassed; MPI-IO enables direct I/O on files shared by
// more than one process.
type DirectIOSetter interface {
	SetDirectIO(direct bool)
}

// File is an MPI file: one path opened by every rank through its own
// filesystem mount.
type File struct {
	w       *World
	path    string
	flags   int
	mounts  []fs.Interface
	handles []fs.Handle
	hints   Hints
	aggs    []int // aggregator ranks

	pending *collOp // rendezvous for the in-flight collective
}

// OpenFile describes a file to the world; every rank must then call
// Open from its own process. mounts[i] is rank i's filesystem (an NFS
// client for shared storage, a local Mount for node-local files).
func OpenFile(w *World, path string, flags int, mounts []fs.Interface, hints Hints) *File {
	if len(mounts) != w.Size() {
		panic(fmt.Sprintf("mpiio: %d mounts for %d ranks", len(mounts), w.Size()))
	}
	if hints.CBBufferSize == 0 {
		hints.CBBufferSize = 16 << 20
	}
	f := &File{
		w:       w,
		path:    path,
		flags:   flags,
		mounts:  mounts,
		handles: make([]fs.Handle, w.Size()),
		hints:   hints,
	}
	f.aggs = f.chooseAggregators()
	return f
}

// chooseAggregators picks the first rank on each distinct node
// (ROMIO's default), truncated/extended to CBNodes if set.
func (f *File) chooseAggregators() []int {
	seen := map[string]bool{}
	var aggs []int
	for r := 0; r < f.w.Size(); r++ {
		node := f.w.Node(r)
		if !seen[node] {
			seen[node] = true
			aggs = append(aggs, r)
		}
	}
	if f.hints.CBNodes > 0 {
		for r := 0; len(aggs) < f.hints.CBNodes && r < f.w.Size(); r++ {
			found := false
			for _, a := range aggs {
				if a == r {
					found = true
					break
				}
			}
			if !found {
				aggs = append(aggs, r)
			}
		}
		if len(aggs) > f.hints.CBNodes {
			aggs = aggs[:f.hints.CBNodes]
		}
		sort.Ints(aggs)
	}
	return aggs
}

// Aggregators returns the aggregator ranks used for collective I/O.
func (f *File) Aggregators() []int { return append([]int{}, f.aggs...) }

// Path returns the file path.
func (f *File) Path() string { return f.path }

// Open opens the file on the calling rank. Files opened by more than
// one process are switched to direct I/O on filesystems that support
// it (the NFS client): ROMIO cannot rely on close-to-open caching for
// shared files.
func (f *File) Open(p *sim.Proc, rank int) error {
	r := f.w.req(p, telemetry.ClassMeta)
	t0 := p.Now()
	r.PushOn(f.w.rec)
	defer r.Pop()
	h, err := f.mounts[rank].Open(r, f.path, f.flags)
	if err != nil {
		return err
	}
	if f.w.Size() > 1 {
		if d, ok := h.(DirectIOSetter); ok {
			d.SetDirectIO(true)
		}
	}
	f.handles[rank] = h
	f.w.trace(Event{Rank: rank, Op: OpOpen, File: f.path, Offset: -1, Count: 1, T0: t0, T1: p.Now()})
	return nil
}

// lock charges per-operation byte-range locking when the rank's
// mount requires it. A file private to one process needs none.
func (f *File) lock(r *ioreq.Request, rank int, count int64) {
	if f.w.Size() == 1 {
		return
	}
	if l, ok := f.mounts[rank].(ByteRangeLocker); ok {
		l.LockUnlock(r, count)
	}
}

func (f *File) handle(rank int) fs.Handle {
	h := f.handles[rank]
	if h == nil {
		panic(fmt.Sprintf("mpiio: rank %d uses %q before Open", rank, f.path))
	}
	return h
}

// WriteAt is an independent write.
func (f *File) WriteAt(p *sim.Proc, rank int, off, n int64) int64 {
	r := f.w.req(p, telemetry.ClassWrite)
	t0 := p.Now()
	r.PushOn(f.w.rec)
	defer r.Pop()
	f.lock(r, rank, 1)
	got := f.handle(rank).WriteAt(r, off, n)
	f.w.trace(Event{Rank: rank, Op: OpWrite, File: f.path, Offset: off, Bytes: got, Count: 1, Span: got, T0: t0, T1: p.Now()})
	return got
}

// ReadAt is an independent read.
func (f *File) ReadAt(p *sim.Proc, rank int, off, n int64) int64 {
	r := f.w.req(p, telemetry.ClassRead)
	t0 := p.Now()
	r.PushOn(f.w.rec)
	defer r.Pop()
	f.lock(r, rank, 1)
	got := f.handle(rank).ReadAt(r, off, n)
	f.w.trace(Event{Rank: rank, Op: OpRead, File: f.path, Offset: off, Bytes: got, Count: 1, Span: got, T0: t0, T1: p.Now()})
	return got
}

// WriteVec issues many independent writes (e.g. a strided pattern)
// in one library call per element, batched for simulation efficiency.
func (f *File) WriteVec(p *sim.Proc, rank int, vecs []fs.IOVec) int64 {
	if len(vecs) == 0 {
		return 0
	}
	r := f.w.req(p, telemetry.ClassWrite)
	t0 := p.Now()
	r.PushOn(f.w.rec)
	defer r.Pop()
	f.lock(r, rank, int64(len(vecs)))
	got := f.handle(rank).WriteVec(r, vecs)
	f.w.trace(Event{Rank: rank, Op: OpWrite, File: f.path, Offset: vecs[0].Off,
		Bytes: got, Count: len(vecs), Stride: vecStride(vecs), Span: vecSpan(vecs), T0: t0, T1: p.Now()})
	return got
}

// ReadVec issues many independent reads.
func (f *File) ReadVec(p *sim.Proc, rank int, vecs []fs.IOVec) int64 {
	if len(vecs) == 0 {
		return 0
	}
	r := f.w.req(p, telemetry.ClassRead)
	t0 := p.Now()
	r.PushOn(f.w.rec)
	defer r.Pop()
	f.lock(r, rank, int64(len(vecs)))
	got := f.handle(rank).ReadVec(r, vecs)
	f.w.trace(Event{Rank: rank, Op: OpRead, File: f.path, Offset: vecs[0].Off,
		Bytes: got, Count: len(vecs), Stride: vecStride(vecs), Span: vecSpan(vecs), T0: t0, T1: p.Now()})
	return got
}

// Sync flushes the rank's view of the file.
func (f *File) Sync(p *sim.Proc, rank int) {
	r := f.w.req(p, telemetry.ClassMeta)
	t0 := p.Now()
	r.PushOn(f.w.rec)
	defer r.Pop()
	f.handle(rank).Sync(r)
	f.w.trace(Event{Rank: rank, Op: OpSync, File: f.path, Offset: -1, Count: 1, T0: t0, T1: p.Now()})
}

// Close closes the rank's handle.
func (f *File) Close(p *sim.Proc, rank int) {
	r := f.w.req(p, telemetry.ClassMeta)
	t0 := p.Now()
	r.PushOn(f.w.rec)
	defer r.Pop()
	f.handle(rank).Close(r)
	f.handles[rank] = nil
	f.w.trace(Event{Rank: rank, Op: OpClose, File: f.path, Offset: -1, Count: 1, T0: t0, T1: p.Now()})
}

// WriteAtAll is the collective write of one contiguous span per rank.
func (f *File) WriteAtAll(p *sim.Proc, rank int, off, n int64) int64 {
	return f.WriteVecAll(p, rank, []fs.IOVec{{Off: off, Len: n}})
}

// ReadAtAll is the collective read of one contiguous span per rank.
func (f *File) ReadAtAll(p *sim.Proc, rank int, off, n int64) int64 {
	return f.ReadVecAll(p, rank, []fs.IOVec{{Off: off, Len: n}})
}

// WriteVecAll is the collective (two-phase) write: every rank calls
// it with its own scattered contribution; aggregator ranks gather the
// data over the communication network, rearrange it, and write large
// contiguous chunks.
func (f *File) WriteVecAll(p *sim.Proc, rank int, vecs []fs.IOVec) int64 {
	r := f.w.req(p, telemetry.ClassWrite)
	t0 := p.Now()
	r.PushOn(f.w.rec)
	defer r.Pop()
	n := f.collective(r, rank, vecs, true)
	// One collective library call counts as one operation regardless
	// of how many file regions the rank contributed (the paper's
	// Table II counts 640 = ranks × dumps for the full subtype).
	// Collective buffering realizes the access as large contiguous
	// writes regardless of the rank's scattered view: Span = Bytes so
	// the phase classifies as sequential.
	f.w.trace(Event{Rank: rank, Op: OpWriteAll, File: f.path, Offset: firstOff(vecs),
		Bytes: n, Count: 1, Span: n, T0: t0, T1: p.Now()})
	return n
}

// ReadVecAll is the collective (two-phase) read.
func (f *File) ReadVecAll(p *sim.Proc, rank int, vecs []fs.IOVec) int64 {
	r := f.w.req(p, telemetry.ClassRead)
	t0 := p.Now()
	r.PushOn(f.w.rec)
	defer r.Pop()
	n := f.collective(r, rank, vecs, false)
	f.w.trace(Event{Rank: rank, Op: OpReadAll, File: f.path, Offset: firstOff(vecs),
		Bytes: n, Count: 1, Span: n, T0: t0, T1: p.Now()})
	return n
}

func firstOff(vecs []fs.IOVec) int64 {
	if len(vecs) == 0 {
		return -1
	}
	return vecs[0].Off
}

// vecSpan returns the file extent covered by the vector (assumes
// ascending offsets, which all workloads produce).
func vecSpan(vecs []fs.IOVec) int64 {
	if len(vecs) == 0 {
		return 0
	}
	last := vecs[len(vecs)-1]
	return last.Off + last.Len - vecs[0].Off
}

// vecStride returns the constant offset stride of the vector, or 0 if
// the elements are not evenly spaced (or there are fewer than two).
func vecStride(vecs []fs.IOVec) int64 {
	if len(vecs) < 2 {
		return 0
	}
	stride := vecs[1].Off - vecs[0].Off
	for i := 2; i < len(vecs); i++ {
		if vecs[i].Off-vecs[i-1].Off != stride {
			return 0
		}
	}
	return stride
}

// collOp is the rendezvous state of one in-flight collective.
type collOp struct {
	rendezvous genBarrier
	afterXchg  genBarrier
	afterIO    genBarrier
	vecs       [][]fs.IOVec
	write      bool

	// plan, computed by the last arriving rank:
	parts      []part // per aggregator
	totalBytes int64
}

type part struct {
	rank int // aggregator rank
	vecs []fs.IOVec
	size int64
}

func (f *File) collective(r *ioreq.Request, rank int, vecs []fs.IOVec, write bool) int64 {
	p := r.Proc()
	if !f.hints.CollectiveBuffering {
		// Degenerate collective: independent operation per rank.
		f.lock(r, rank, int64(len(vecs)))
		if write {
			return f.handle(rank).WriteVec(r, vecs)
		}
		return f.handle(rank).ReadVec(r, vecs)
	}

	n := f.w.Size()
	if f.pending == nil {
		c := &collOp{vecs: make([][]fs.IOVec, n), write: write}
		c.rendezvous.n, c.afterXchg.n, c.afterIO.n = n, n, n
		f.pending = c
	}
	c := f.pending
	if c.write != write {
		panic(fmt.Sprintf("mpiio: mixed collective read/write on %q", f.path))
	}
	c.vecs[rank] = vecs
	if c.rendezvous.count == n-1 {
		// Last arrival computes the plan before releasing everyone.
		f.pending = nil
		c.computePlan(f)
	}
	c.rendezvous.wait(p)

	var myBytes int64
	for _, v := range c.vecs[rank] {
		myBytes += v.Len
	}

	if write {
		f.exchange(r, c, rank, myBytes, true)
		c.afterXchg.wait(p)
		f.aggregatorIO(r, c, rank, true)
		c.afterIO.wait(p)
	} else {
		f.aggregatorIO(r, c, rank, false)
		c.afterXchg.wait(p)
		f.exchange(r, c, rank, myBytes, false)
		c.afterIO.wait(p)
	}
	return myBytes
}

// computePlan merges all contributions into a minimal contiguous
// cover and partitions it evenly across aggregators.
func (c *collOp) computePlan(f *File) {
	c.partition(f, mergeCover(c.vecs))
}

// partition splits the cover into one contiguous share per
// aggregator, in offset order.
func (c *collOp) partition(f *File, merged []fs.IOVec) {
	var total int64
	for _, m := range merged {
		total += m.Len
	}
	c.totalBytes = total

	nAgg := len(f.aggs)
	if nAgg == 0 {
		panic("mpiio: no aggregators")
	}
	share := (total + int64(nAgg) - 1) / int64(nAgg)
	c.parts = make([]part, 0, nAgg)
	cur := part{rank: f.aggs[0]}
	ai := 0
	for _, m := range merged {
		off, length := m.Off, m.Len
		for length > 0 {
			room := share - cur.size
			take := length
			if take > room {
				take = room
			}
			if take > 0 {
				cur.vecs = append(cur.vecs, fs.IOVec{Off: off, Len: take})
				cur.size += take
				off += take
				length -= take
			}
			if cur.size >= share && ai < nAgg-1 {
				c.parts = append(c.parts, cur)
				ai++
				cur = part{rank: f.aggs[ai]}
			}
		}
	}
	if cur.size > 0 || len(c.parts) == 0 {
		c.parts = append(c.parts, cur)
	}
}

// mergeCover folds the ranks' extent lists into their minimal
// contiguous cover, skipping zero-length extents. Each list is
// normally sorted by offset already (synth emits them so), so a P-way
// merge over a min-heap of ranks, keyed by each rank's next offset,
// replaces sorting the concatenation. A list that is not sorted is
// sorted on a copy, since the caller still owns it.
func mergeCover(vecs [][]fs.IOVec) []fs.IOVec {
	type head struct {
		off  int64 // offset of the rank's next extent
		rank int
	}
	lists := make([][]fs.IOVec, len(vecs))
	next := make([]int, len(vecs)) // per-rank cursor into lists
	heap := make([]head, 0, len(vecs))
	for r, vs := range vecs {
		if !ioreq.IsSorted(vs) {
			vs = slices.Clone(vs)
			ioreq.Sort(vs)
		}
		lists[r] = vs
		if len(vs) > 0 {
			heap = append(heap, head{vs[0].Off, r})
		}
	}
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(heap) && heap[l].off < heap[m].off {
				m = l
			}
			if r := 2*i + 2; r < len(heap) && heap[r].off < heap[m].off {
				m = r
			}
			if m == i {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	var merged []fs.IOVec
	for len(heap) > 0 {
		r := heap[0].rank
		if v := lists[r][next[r]]; v.Len > 0 {
			merged = ioreq.AppendMerged(merged, v)
		}
		next[r]++
		if next[r] < len(lists[r]) {
			heap[0].off = lists[r][next[r]].Off
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return merged
}

// exchange moves each rank's bytes between the rank and the
// aggregators, proportionally to partition sizes — phase one of
// two-phase I/O (phase two for reads).
func (f *File) exchange(r *ioreq.Request, c *collOp, rank int, myBytes int64, toAggs bool) {
	if c.totalBytes == 0 || myBytes == 0 {
		return
	}
	for _, pt := range c.parts {
		share := myBytes * pt.size / c.totalBytes
		if share == 0 {
			continue
		}
		if toAggs {
			f.w.net.Transfer(r, f.w.nics[rank], f.w.nics[pt.rank], share)
		} else {
			f.w.net.Transfer(r, f.w.nics[pt.rank], f.w.nics[rank], share)
		}
	}
}

// aggregatorIO performs the file phase: if the calling rank owns a
// partition it reads/writes it in CBBufferSize chunks.
func (f *File) aggregatorIO(r *ioreq.Request, c *collOp, rank int, write bool) {
	for _, pt := range c.parts {
		if pt.rank != rank {
			continue
		}
		h := f.handle(rank)
		bufsz := f.hints.CBBufferSize
		// Issue the partition in buffer-size rounds, preserving vector
		// boundaries (partitions are contiguous covers, so vectors here
		// are already large).
		var round []fs.IOVec
		var roundBytes int64
		flush := func() {
			if len(round) == 0 {
				return
			}
			f.lock(r, rank, 1)
			if write {
				h.WriteVec(r, round)
			} else {
				h.ReadVec(r, round)
			}
			round, roundBytes = nil, 0
		}
		for _, v := range pt.vecs {
			for v.Len > 0 {
				take := v.Len
				if take > bufsz-roundBytes {
					take = bufsz - roundBytes
				}
				round = append(round, fs.IOVec{Off: v.Off, Len: take})
				roundBytes += take
				v.Off += take
				v.Len -= take
				if roundBytes == bufsz {
					flush()
				}
			}
		}
		flush()
	}
}
