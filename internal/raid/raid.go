// Package raid implements software storage organizations over member
// block devices: JBOD concatenation, RAID 0 striping, RAID 1 mirroring
// and RAID 5 rotating-parity striping. Arrays satisfy device.BlockDev,
// so they slot under filesystems exactly like a plain disk, and they
// reproduce the mechanics that make the paper's three configurations
// (JBOD, RAID 1, RAID 5) behave differently: mirrored-write cost,
// parity read-modify-write, and multi-spindle parallelism.
package raid

import (
	"fmt"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

var (
	kRebuildsStarted   = telemetry.NewAuxKey("rebuilds_started")
	kRebuildBytes      = telemetry.NewAuxKey("rebuild_bytes")
	kRebuildsCompleted = telemetry.NewAuxKey("rebuilds_completed")
	kDegradedSegs      = telemetry.NewAuxKey("degraded_segs")
)

// Level identifies the array organization.
type Level int

// Supported organizations.
const (
	JBOD Level = iota
	RAID0
	RAID1
	RAID5
)

func (l Level) String() string {
	switch l {
	case JBOD:
		return "JBOD"
	case RAID0:
		return "RAID0"
	case RAID1:
		return "RAID1"
	case RAID5:
		return "RAID5"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Array is a storage array over member devices. It implements
// device.BlockDev.
type Array struct {
	eng        *sim.Engine
	name       string
	level      Level
	members    []device.BlockDev
	stripeUnit int64
	capacity   int64
	rrNext     int          // RAID 1 read round-robin cursor
	failed     map[int]bool // degraded-mode members (see degraded.go)
	rec        *telemetry.Recorder
	spare      []*scratch // scratch not held by a call (takeScratch)
}

var _ device.BlockDev = (*Array)(nil)

// NewJBOD concatenates the members into one address space.
func NewJBOD(e *sim.Engine, name string, members ...device.BlockDev) *Array {
	if len(members) == 0 {
		panic("raid: JBOD needs at least one member")
	}
	a := &Array{eng: e, name: name, level: JBOD, members: members}
	for _, m := range members {
		a.capacity += m.Capacity()
	}
	a.initTelemetry()
	return a
}

// NewRAID0 stripes across members with the given stripe unit (bytes).
func NewRAID0(e *sim.Engine, name string, stripeUnit int64, members ...device.BlockDev) *Array {
	if len(members) < 2 {
		panic("raid: RAID0 needs at least two members")
	}
	checkStripe(stripeUnit)
	a := &Array{eng: e, name: name, level: RAID0, members: members, stripeUnit: stripeUnit}
	a.capacity = minCap(members) * int64(len(members))
	a.initTelemetry()
	return a
}

// NewRAID1 mirrors across members. Capacity is that of the smallest
// member; reads are balanced round-robin, writes go to every mirror in
// parallel.
func NewRAID1(e *sim.Engine, name string, members ...device.BlockDev) *Array {
	if len(members) < 2 {
		panic("raid: RAID1 needs at least two members")
	}
	a := &Array{eng: e, name: name, level: RAID1, members: members}
	a.capacity = minCap(members)
	a.initTelemetry()
	return a
}

// NewRAID5 stripes with one rotating parity chunk per row
// (left-symmetric layout). Usable capacity is (n-1) members.
func NewRAID5(e *sim.Engine, name string, stripeUnit int64, members ...device.BlockDev) *Array {
	if len(members) < 3 {
		panic("raid: RAID5 needs at least three members")
	}
	checkStripe(stripeUnit)
	a := &Array{eng: e, name: name, level: RAID5, members: members, stripeUnit: stripeUnit}
	a.capacity = minCap(members) * int64(len(members)-1)
	a.initTelemetry()
	return a
}

// initTelemetry attaches the array's recorder; capacity units are the
// member spindles, since that is the array's service parallelism.
func (a *Array) initTelemetry() {
	a.rec = telemetry.NewRecorder(a.eng, "array:"+a.name, telemetry.LevelBlock, int64(len(a.members)))
}

// Telemetry returns the array's telemetry probe.
func (a *Array) Telemetry() *telemetry.Recorder { return a.rec }

func checkStripe(u int64) {
	if u <= 0 || u&(u-1) != 0 {
		panic(fmt.Sprintf("raid: stripe unit %d must be a positive power of two", u))
	}
}

func minCap(members []device.BlockDev) int64 {
	m := members[0].Capacity()
	for _, d := range members[1:] {
		if c := d.Capacity(); c < m {
			m = c
		}
	}
	return m
}

// Name returns the array's diagnostic name.
func (a *Array) Name() string { return a.name }

// Level returns the array organization.
func (a *Array) Level() Level { return a.level }

// Capacity returns the usable array capacity in bytes.
func (a *Array) Capacity() int64 { return a.capacity }

// Members returns the member devices (for statistics inspection).
func (a *Array) Members() []device.BlockDev { return a.members }

// StripeUnit returns the stripe unit, or 0 for JBOD/RAID1.
func (a *Array) StripeUnit() int64 { return a.stripeUnit }

func (a *Array) checkRange(off, n int64, op string) {
	if off < 0 || n < 0 || off+n > a.capacity {
		panic(fmt.Sprintf("raid %q: %s out of range: off=%d n=%d cap=%d",
			a.name, op, off, n, a.capacity))
	}
}

// segment is a physical extent on one member.
type segment struct {
	disk     int
	off, len int64
}

// scratch is the working memory of one call into the array: the
// mappers append into segs, mergeSegments groups them per disk into
// groups/bounds, and fanOut builds its sim.Fork arguments in fns from
// tasks. A call takes a scratch on entry and returns it on exit, so a
// call parked in its Fork keeps its own while another process enters
// the same array.
type scratch struct {
	segs   []segment // mapper output, in logical order
	groups []segment // segs grouped by disk, adjacent extents merged
	bounds []int     // groups[bounds[i-1]:bounds[i]] is the i-th disk's list
	seen   []bool    // per member: already grouped (mergeSegments)
	fns    []func(*sim.Proc)
	tasks  []*diskTask
}

// diskTask runs one disk's segment list on a forked process. A task
// binds run to itself once, when its scratch first needs it, so a
// fan-out builds no closure per disk. It owns its child's request
// view, filled when the child starts: the view lives exactly as long
// as the task's part in one Fork (DESIGN §11).
type diskTask struct {
	a     *Array
	r     *ioreq.Request
	view  ioreq.Request
	segs  []segment
	write bool
	run   func(*sim.Proc)
}

func (t *diskTask) exec(c *sim.Proc) { t.a.runSegs(t.r.ViewInto(&t.view, c), t.segs, t.write) }

// takeScratch pops a scratch off the array's stack, or makes one when
// every scratch is in use by a call still inside the array. Only one
// process runs at a time, so the stack needs no lock.
func (a *Array) takeScratch() *scratch {
	n := len(a.spare)
	if n == 0 {
		return &scratch{seen: make([]bool, len(a.members))}
	}
	sc := a.spare[n-1]
	a.spare[n-1] = nil
	a.spare = a.spare[:n-1]
	return sc
}

// putScratch empties sc and pushes it back on the array's stack.
func (a *Array) putScratch(sc *scratch) {
	sc.segs, sc.groups, sc.bounds = sc.segs[:0], sc.groups[:0], sc.bounds[:0]
	a.spare = append(a.spare, sc)
}

// mergeSegments groups sc.segs per disk into sc.groups and sc.bounds,
// coalescing physically adjacent extents and preserving per-disk
// order. Disks appear in the order of their first segment. The input
// must already be sorted by logical position (which the mappers
// guarantee).
func (sc *scratch) mergeSegments() {
	sc.groups, sc.bounds = sc.groups[:0], sc.bounds[:0]
	for i, first := range sc.segs {
		if sc.seen[first.disk] {
			continue
		}
		sc.seen[first.disk] = true
		lo := len(sc.groups)
		for _, s := range sc.segs[i:] {
			if s.disk != first.disk {
				continue
			}
			if k := len(sc.groups) - 1; k >= lo && sc.groups[k].off+sc.groups[k].len == s.off {
				sc.groups[k].len += s.len
			} else {
				sc.groups = append(sc.groups, s)
			}
		}
		sc.bounds = append(sc.bounds, len(sc.groups))
	}
	for _, s := range sc.segs {
		sc.seen[s.disk] = false
	}
}

// runPerDisk executes each of sc's per-disk segment lists in parallel
// across disks (serially within a disk), blocking the request until
// all complete.
func (a *Array) runPerDisk(r *ioreq.Request, sc *scratch, write bool) {
	if len(sc.bounds) == 1 {
		a.runSegs(r, sc.groups, write)
		return
	}
	a.fanOut(r, sc, write, "stripe")
}

// fanOut forks one process per disk list in sc, named label, and
// waits for them all.
func (a *Array) fanOut(r *ioreq.Request, sc *scratch, write bool, label string) {
	lo := 0
	for i, hi := range sc.bounds {
		if i == len(sc.tasks) {
			t := &diskTask{a: a}
			t.run = t.exec
			sc.tasks = append(sc.tasks, t)
		}
		t := sc.tasks[i]
		t.r, t.segs, t.write = r, sc.groups[lo:hi], write
		sc.fns = append(sc.fns, t.run)
		lo = hi
	}
	sim.Fork(r.Proc(), label, sc.fns...)
	// A spare scratch keeps no request or list alive.
	clear(sc.fns)
	sc.fns = sc.fns[:0]
	for _, t := range sc.tasks[:len(sc.bounds)] {
		t.r, t.view, t.segs = nil, ioreq.Request{}, nil
	}
}

func (a *Array) runSegs(r *ioreq.Request, segs []segment, write bool) {
	for _, s := range segs {
		if a.failed[s.disk] {
			a.rec.Add(kDegradedSegs, 1)
			r.Tag("raid_degraded")
			if write {
				a.degradedWrite(r, s)
			} else {
				a.degradedRead(r, s)
			}
			continue
		}
		if write {
			a.members[s.disk].WriteAt(r, s.off, s.len)
		} else {
			a.members[s.disk].ReadAt(r, s.off, s.len)
		}
	}
}

// ReadAt implements device.BlockDev.
func (a *Array) ReadAt(r *ioreq.Request, off, n int64) {
	a.checkRange(off, n, "read")
	if n == 0 {
		return
	}
	r.Enter(a.rec)
	defer r.Exit()
	defer r.Observe(telemetry.ClassRead, 1, n)
	sc := a.takeScratch()
	defer a.putScratch(sc)
	switch a.level {
	case JBOD:
		sc.segs = a.mapConcat(sc.segs, off, n)
		sc.mergeSegments()
	case RAID0:
		sc.segs = a.mapStripe(sc.segs, off, n, len(a.members))
		sc.mergeSegments()
	case RAID1:
		// Balance reads across mirrors: split the request round-robin in
		// stripe-sized slices so large reads use all spindles.
		a.mapMirrorRead(sc, off, n)
	case RAID5:
		sc.segs = a.mapRAID5Data(sc.segs, off, n)
		sc.mergeSegments()
	}
	a.runPerDisk(r, sc, false)
}

// WriteAt implements device.BlockDev.
func (a *Array) WriteAt(r *ioreq.Request, off, n int64) {
	a.checkRange(off, n, "write")
	if n == 0 {
		return
	}
	r.Enter(a.rec)
	defer r.Exit()
	defer r.Observe(telemetry.ClassWrite, 1, n)
	sc := a.takeScratch()
	defer a.putScratch(sc)
	switch a.level {
	case JBOD:
		sc.segs = a.mapConcat(sc.segs, off, n)
		sc.mergeSegments()
		a.runPerDisk(r, sc, true)
	case RAID0:
		sc.segs = a.mapStripe(sc.segs, off, n, len(a.members))
		sc.mergeSegments()
		a.runPerDisk(r, sc, true)
	case RAID1:
		// Every healthy mirror writes the full data.
		a.eachSurvivor(sc, -1, off, n)
		a.fanOut(r, sc, true, "mirror")
	case RAID5:
		a.writeRAID5(r, sc, off, n)
	}
}

// Flush implements device.BlockDev: all healthy members flush in
// parallel.
func (a *Array) Flush(r *ioreq.Request) {
	r.PushOn(a.rec)
	defer r.Pop()
	defer r.Observe(telemetry.ClassMeta, 1, 0)
	fns := make([]func(*sim.Proc), 0, len(a.members))
	for i := range a.members {
		if a.failed[i] {
			continue
		}
		m := a.members[i]
		fns = append(fns, func(c *sim.Proc) { m.Flush(r.WithProc(c)) })
	}
	sim.Fork(r.Proc(), "flush", fns...)
}

// eachSurvivor puts one list in sc per healthy member other than
// skip, in member order, each the single extent [off, off+n).
func (a *Array) eachSurvivor(sc *scratch, skip int, off, n int64) {
	for i := range a.members {
		if i == skip || a.failed[i] {
			continue
		}
		sc.groups = append(sc.groups, segment{disk: i, off: off, len: n})
		sc.bounds = append(sc.bounds, len(sc.groups))
	}
}

// The mappers append a logical range's physical segments to segs, in
// logical order, and return the extended slice.

// mapConcat maps a JBOD logical range onto members laid end to end.
func (a *Array) mapConcat(segs []segment, off, n int64) []segment {
	base := int64(0)
	for i, m := range a.members {
		c := m.Capacity()
		if off < base+c && off+n > base {
			s := max(off, base)
			e := min(off+n, base+c)
			segs = append(segs, segment{disk: i, off: s - base, len: e - s})
		}
		base += c
	}
	return segs
}

// mapStripe maps a striped logical range over nData disks (RAID 0
// semantics; also used for the data part of full RAID 5 rows when
// nData = members-1 is handled by mapRAID5Data instead).
func (a *Array) mapStripe(segs []segment, off, n int64, nData int) []segment {
	u := a.stripeUnit
	for n > 0 {
		chunk := off / u
		within := off % u
		take := min(u-within, n)
		row := chunk / int64(nData)
		col := int(chunk % int64(nData))
		segs = append(segs, segment{disk: col, off: row*u + within, len: take})
		off += take
		n -= take
	}
	return segs
}

// mapMirrorRead splits a RAID 1 read across mirrors in 1 MB slices,
// rotating the starting mirror per call to balance independent small
// reads too. It fills sc's per-disk lists directly, in member order.
func (a *Array) mapMirrorRead(sc *scratch, off, n int64) {
	const slice = 1 << 20
	healthy := 0
	for i := range a.members {
		if !a.failed[i] {
			healthy++
		}
	}
	first := a.rrNext % healthy
	a.rrNext = (a.rrNext + 1) % healthy
	count := (n + slice - 1) / slice
	h := 0 // d's rank among the healthy members
	for d := range a.members {
		if a.failed[d] {
			continue
		}
		// Slice k goes to the healthy member of rank (first+k) mod healthy.
		lo := len(sc.groups)
		for k := int64((h - first + healthy) % healthy); k < count; k += int64(healthy) {
			o := off + k*slice
			sc.groups = append(sc.groups, segment{disk: d, off: o, len: min(slice, off+n-o)})
		}
		if len(sc.groups) > lo {
			sc.bounds = append(sc.bounds, len(sc.groups))
		}
		h++
	}
}

// raid5Geometry: rows of (n-1) data chunks + 1 parity chunk, parity
// rotating left-symmetric: parity disk for row r is (n-1 - r mod n);
// data chunk c of row r lives on disk (parityDisk+1+c) mod n.
func (a *Array) raid5Pos(chunk int64) (disk int, physOff int64) {
	n := int64(len(a.members))
	u := a.stripeUnit
	row := chunk / (n - 1)
	col := chunk % (n - 1)
	pd := n - 1 - row%n
	d := (pd + 1 + col) % n
	return int(d), row * u
}

// raid5ParityPos returns the parity chunk location for a row.
func (a *Array) raid5ParityPos(row int64) (disk int, physOff int64) {
	n := int64(len(a.members))
	pd := n - 1 - row%n
	return int(pd), row * a.stripeUnit
}

// mapRAID5Data maps a logical range to data-chunk segments (parity
// untouched — reads never touch parity on a healthy array).
func (a *Array) mapRAID5Data(segs []segment, off, n int64) []segment {
	u := a.stripeUnit
	for n > 0 {
		chunk := off / u
		within := off % u
		take := min(u-within, n)
		d, phys := a.raid5Pos(chunk)
		segs = append(segs, segment{disk: d, off: phys + within, len: take})
		off += take
		n -= take
	}
	return segs
}

// writeRAID5 splits the request into full rows (parity computed from
// the new data: write n members in parallel) and partial rows
// (read-modify-write: read old data+parity, then write new
// data+parity).
func (a *Array) writeRAID5(r *ioreq.Request, sc *scratch, off, n int64) {
	u := a.stripeUnit
	rowBytes := u * int64(len(a.members)-1)

	type rowSpan struct {
		row      int64
		off, len int64 // logical, within this row's data
	}
	// A contiguous range has at most two partial rows: its first and
	// its last.
	var partial [2]rowSpan
	np := 0

	for n > 0 {
		row := off / rowBytes
		within := off % rowBytes
		take := min(rowBytes-within, n)
		if within == 0 && take == rowBytes {
			// Full row: data chunks + parity chunk, all written.
			sc.segs = a.mapRAID5Data(sc.segs, off, take)
			pd, physOff := a.raid5ParityPos(row)
			sc.segs = append(sc.segs, segment{disk: pd, off: physOff, len: u})
		} else {
			partial[np] = rowSpan{row: row, off: off, len: take}
			np++
		}
		off += take
		n -= take
	}

	if len(sc.segs) > 0 {
		sc.mergeSegments()
		a.runPerDisk(r, sc, true)
	}
	for _, span := range partial[:np] {
		a.rmwRow(r, sc, span.row, span.off, span.len)
	}
}

// rmwRow performs the read-modify-write for a partial-row write: phase
// 1 reads the old data chunks and old parity in parallel; phase 2
// writes the new data and new parity in parallel. This is the classic
// "small-write penalty" (4 disk ops for a single-chunk write).
func (a *Array) rmwRow(r *ioreq.Request, sc *scratch, row, off, n int64) {
	sc.segs = a.mapRAID5Data(sc.segs[:0], off, n)
	pd, physOff := a.raid5ParityPos(row)
	// Parity must be re-read/re-written across the byte range the data
	// touches within the row (aligned to the same within-chunk span).
	pw := paritySpan(sc.segs, a.stripeUnit)
	sc.segs = append(sc.segs, segment{disk: pd, off: physOff + pw.off, len: pw.len})
	sc.mergeSegments()
	a.runPerDisk(r, sc, false)
	a.runPerDisk(r, sc, true)
}

type span struct{ off, len int64 }

// paritySpan returns the union of within-chunk byte ranges covered by
// the data segments, which is the parity range that must be updated.
func paritySpan(segs []segment, u int64) span {
	lo, hi := int64(1)<<62, int64(0)
	for _, s := range segs {
		w := s.off % u
		if w < lo {
			lo = w
		}
		if w+s.len > hi {
			hi = w + s.len
		}
	}
	if hi > u {
		hi = u
	}
	return span{off: lo, len: hi - lo}
}
