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

// mergeSegments coalesces physically adjacent extents per disk,
// preserving per-disk order. The input must already be sorted by
// logical position (which the mappers guarantee).
func mergeSegments(segs []segment) [][]segment {
	byDisk := map[int][]segment{}
	order := []int{}
	for _, s := range segs {
		list := byDisk[s.disk]
		if n := len(list); n > 0 && list[n-1].off+list[n-1].len == s.off {
			list[n-1].len += s.len
		} else {
			if len(list) == 0 {
				order = append(order, s.disk)
			}
			list = append(list, s)
		}
		byDisk[s.disk] = list
	}
	out := make([][]segment, 0, len(order))
	for _, d := range order {
		out = append(out, byDisk[d])
	}
	return out
}

// runPerDisk executes each disk's segment list in parallel across
// disks (serially within a disk), blocking the request until all
// complete.
func (a *Array) runPerDisk(r *ioreq.Request, perDisk [][]segment, write bool) {
	if len(perDisk) == 1 {
		a.runSegs(r, perDisk[0], write)
		return
	}
	fns := make([]func(*sim.Proc), len(perDisk))
	for i, segs := range perDisk {
		segs := segs
		fns[i] = func(c *sim.Proc) { a.runSegs(r.WithProc(c), segs, write) }
	}
	sim.Fork(r.Proc(), "stripe", fns...)
}

func (a *Array) runSegs(r *ioreq.Request, segs []segment, write bool) {
	for _, s := range segs {
		if a.failed[s.disk] {
			a.rec.Add("degraded_segs", 1)
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
	switch a.level {
	case JBOD:
		a.runPerDisk(r, mergeSegments(a.mapConcat(off, n)), false)
	case RAID0:
		a.runPerDisk(r, mergeSegments(a.mapStripe(off, n, len(a.members))), false)
	case RAID1:
		// Balance reads across mirrors: split the request round-robin in
		// stripe-sized slices so large reads use all spindles.
		a.runPerDisk(r, a.mapMirrorRead(off, n), false)
	case RAID5:
		a.runPerDisk(r, mergeSegments(a.mapRAID5Data(off, n)), false)
	}
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
	switch a.level {
	case JBOD:
		a.runPerDisk(r, mergeSegments(a.mapConcat(off, n)), true)
	case RAID0:
		a.runPerDisk(r, mergeSegments(a.mapStripe(off, n, len(a.members))), true)
	case RAID1:
		// Every healthy mirror writes the full data.
		fns := make([]func(*sim.Proc), 0, len(a.members))
		for i := range a.members {
			if a.failed[i] {
				continue
			}
			m := a.members[i]
			fns = append(fns, func(c *sim.Proc) { m.WriteAt(r.WithProc(c), off, n) })
		}
		sim.Fork(r.Proc(), "mirror", fns...)
	case RAID5:
		a.writeRAID5(r, off, n)
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

// mapConcat maps a JBOD logical range onto members laid end to end.
func (a *Array) mapConcat(off, n int64) []segment {
	var segs []segment
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
func (a *Array) mapStripe(off, n int64, nData int) []segment {
	u := a.stripeUnit
	var segs []segment
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
// reads too.
func (a *Array) mapMirrorRead(off, n int64) [][]segment {
	const slice = 1 << 20
	nm := len(a.members)
	healthy := make([]int, 0, nm)
	for i := 0; i < nm; i++ {
		if !a.failed[i] {
			healthy = append(healthy, i)
		}
	}
	perDisk := make([][]segment, nm)
	i := a.rrNext % len(healthy)
	a.rrNext = (a.rrNext + 1) % len(healthy)
	for n > 0 {
		take := min(slice, n)
		d := healthy[i]
		perDisk[d] = append(perDisk[d], segment{disk: d, off: off, len: take})
		off += take
		n -= take
		i = (i + 1) % len(healthy)
	}
	var out [][]segment
	for _, segs := range perDisk {
		if len(segs) > 0 {
			out = append(out, segs)
		}
	}
	return out
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
func (a *Array) mapRAID5Data(off, n int64) []segment {
	u := a.stripeUnit
	var segs []segment
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
func (a *Array) writeRAID5(r *ioreq.Request, off, n int64) {
	u := a.stripeUnit
	rowBytes := u * int64(len(a.members)-1)

	type rowSpan struct {
		row      int64
		off, len int64 // logical, within this row's data
	}
	var partial []rowSpan
	var fullSegs []segment // data+parity segments of all full rows

	for n > 0 {
		row := off / rowBytes
		within := off % rowBytes
		take := min(rowBytes-within, n)
		if within == 0 && take == rowBytes {
			// Full row: data chunks + parity chunk, all written.
			fullSegs = append(fullSegs, a.mapRAID5Data(off, take)...)
			pd, physOff := a.raid5ParityPos(row)
			fullSegs = append(fullSegs, segment{disk: pd, off: physOff, len: u})
		} else {
			partial = append(partial, rowSpan{row: row, off: off, len: take})
		}
		off += take
		n -= take
	}

	if len(fullSegs) > 0 {
		a.runPerDisk(r, mergeSegments(fullSegs), true)
	}
	for _, span := range partial {
		a.rmwRow(r, span.row, span.off, span.len)
	}
}

// rmwRow performs the read-modify-write for a partial-row write: phase
// 1 reads the old data chunks and old parity in parallel; phase 2
// writes the new data and new parity in parallel. This is the classic
// "small-write penalty" (4 disk ops for a single-chunk write).
func (a *Array) rmwRow(r *ioreq.Request, row, off, n int64) {
	dataSegs := a.mapRAID5Data(off, n)
	pd, physOff := a.raid5ParityPos(row)
	// Parity must be re-read/re-written across the byte range the data
	// touches within the row (aligned to the same within-chunk span).
	u := a.stripeUnit
	pw := paritySpan(dataSegs, u)
	paritySeg := segment{disk: pd, off: physOff + pw.off, len: pw.len}

	readSegs := append(append([]segment{}, dataSegs...), paritySeg)
	a.runPerDisk(r, mergeSegments(readSegs), false)
	writeSegs := append(append([]segment{}, dataSegs...), paritySeg)
	a.runPerDisk(r, mergeSegments(writeSegs), true)
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
