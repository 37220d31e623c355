package raid

import (
	"cmp"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/racebuild"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

func disks(e *sim.Engine, n int) []*device.Disk {
	ds := make([]*device.Disk, n)
	for i := range ds {
		ds[i] = device.NewDisk(e, device.DefaultSATA("m"+string(rune('0'+i)), 230*gb, 100e6))
	}
	return ds
}

// counters returns a member disk's recorder counters.
func counters(d *device.Disk) telemetry.Counters { return d.Telemetry().Snapshot().Counters }

func asBlockDevs(ds []*device.Disk) []device.BlockDev {
	out := make([]device.BlockDev, len(ds))
	for i, d := range ds {
		out[i] = d
	}
	return out
}

func run(e *sim.Engine, fn func(*sim.Proc)) sim.Duration {
	var dur sim.Duration
	e.Spawn("t", func(p *sim.Proc) {
		t0 := p.Now()
		fn(p)
		dur = sim.Duration(p.Now() - t0)
	})
	e.Run()
	return dur
}

func TestCapacities(t *testing.T) {
	e := sim.NewEngine()
	d5 := disks(e, 5)
	if c := NewJBOD(e, "j", asBlockDevs(d5)...).Capacity(); c != 5*230*gb {
		t.Errorf("JBOD capacity = %d", c)
	}
	if c := NewRAID0(e, "r0", 256*kb, asBlockDevs(d5)...).Capacity(); c != 5*230*gb {
		t.Errorf("RAID0 capacity = %d", c)
	}
	if c := NewRAID1(e, "r1", asBlockDevs(d5[:2])...).Capacity(); c != 230*gb {
		t.Errorf("RAID1 capacity = %d", c)
	}
	if c := NewRAID5(e, "r5", 256*kb, asBlockDevs(d5)...).Capacity(); c != 4*230*gb {
		t.Errorf("RAID5 capacity = %d", c)
	}
}

func TestConstructorPanics(t *testing.T) {
	e := sim.NewEngine()
	d := asBlockDevs(disks(e, 2))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("raid5-two-members", func() { NewRAID5(e, "x", 256*kb, d...) })
	mustPanic("raid1-one-member", func() { NewRAID1(e, "x", d[0]) })
	mustPanic("raid0-bad-stripe", func() { NewRAID0(e, "x", 3000, d...) })
	mustPanic("jbod-empty", func() { NewJBOD(e, "x") })
}

func TestJBODConcatSplit(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 2)
	a := NewJBOD(e, "j", asBlockDevs(ds)...)
	// Read straddling the member boundary.
	boundary := ds[0].Capacity()
	run(e, func(p *sim.Proc) { a.ReadAt(ioreq.Reader(p), boundary-mb, 2*mb) })
	if counters(ds[0]).Read.Bytes != mb || counters(ds[1]).Read.Bytes != mb {
		t.Fatalf("boundary split: d0=%d d1=%d, want 1MB each",
			counters(ds[0]).Read.Bytes, counters(ds[1]).Read.Bytes)
	}
	// Second half must start at physical offset 0 of disk 1 — i.e. it
	// stays in range even though the logical offset exceeds d1's size.
}

func TestRAID0DistributesEvenly(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 4)
	a := NewRAID0(e, "r0", 256*kb, asBlockDevs(ds)...)
	run(e, func(p *sim.Proc) { a.WriteAt(ioreq.Writer(p), 0, 8*mb) })
	for i, d := range ds {
		if counters(d).Write.Bytes != 2*mb {
			t.Fatalf("disk %d wrote %d, want 2MB", i, counters(d).Write.Bytes)
		}
	}
}

func TestRAID0FasterThanSingleDisk(t *testing.T) {
	e := sim.NewEngine()
	single := device.NewDisk(e, device.DefaultSATA("s", 230*gb, 100e6))
	tSingle := run(e, func(p *sim.Proc) { single.ReadAt(ioreq.Reader(p), 0, 64*mb) })

	e2 := sim.NewEngine()
	a := NewRAID0(e2, "r0", 256*kb, asBlockDevs(disks(e2, 4))...)
	tArray := run(e2, func(p *sim.Proc) { a.ReadAt(ioreq.Reader(p), 0, 64*mb) })

	if float64(tArray) > float64(tSingle)/3.0 {
		t.Fatalf("RAID0x4 (%v) not ≳4x faster than single disk (%v)", tArray, tSingle)
	}
}

func TestRAID1WritesAllMirrors(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 2)
	a := NewRAID1(e, "r1", asBlockDevs(ds)...)
	run(e, func(p *sim.Proc) { a.WriteAt(ioreq.Writer(p), 0, 4*mb) })
	for i, d := range ds {
		if counters(d).Write.Bytes != 4*mb {
			t.Fatalf("mirror %d wrote %d, want 4MB", i, counters(d).Write.Bytes)
		}
	}
}

func TestRAID1LargeReadUsesBothSpindles(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 2)
	a := NewRAID1(e, "r1", asBlockDevs(ds)...)
	run(e, func(p *sim.Proc) { a.ReadAt(ioreq.Reader(p), 0, 8*mb) })
	if counters(ds[0]).Read.Bytes == 0 || counters(ds[1]).Read.Bytes == 0 {
		t.Fatalf("read not balanced: d0=%d d1=%d", counters(ds[0]).Read.Bytes, counters(ds[1]).Read.Bytes)
	}
	if counters(ds[0]).Read.Bytes+counters(ds[1]).Read.Bytes != 8*mb {
		t.Fatalf("read bytes total %d, want 8MB", counters(ds[0]).Read.Bytes+counters(ds[1]).Read.Bytes)
	}
}

func TestRAID1SmallReadsRoundRobin(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 2)
	a := NewRAID1(e, "r1", asBlockDevs(ds)...)
	run(e, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			a.ReadAt(ioreq.Reader(p), int64(i)*64*kb, 64*kb)
		}
	})
	if counters(ds[0]).Read.Ops != 5 || counters(ds[1]).Read.Ops != 5 {
		t.Fatalf("round robin: d0=%d d1=%d ops, want 5/5", counters(ds[0]).Read.Ops, counters(ds[1]).Read.Ops)
	}
}

func TestRAID5ReadSkipsParity(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 5)
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(ds)...)
	// Read exactly 2 full rows = 8 data chunks = 2 MB.
	run(e, func(p *sim.Proc) { a.ReadAt(ioreq.Reader(p), 0, 2*mb) })
	var total int64
	for _, d := range ds {
		total += counters(d).Read.Bytes
	}
	if total != 2*mb {
		t.Fatalf("read touched %d bytes, want exactly 2MB (no parity reads)", total)
	}
}

func TestRAID5FullStripeWriteParityOverhead(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 5)
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(ds)...)
	// Write 4 full rows: 4 MB data ⇒ 4 MB data + 1 MB parity on media.
	run(e, func(p *sim.Proc) { a.WriteAt(ioreq.Writer(p), 0, 4*mb) })
	var total, reads int64
	for _, d := range ds {
		total += counters(d).Write.Bytes
		reads += counters(d).Read.Bytes
	}
	if total != 5*mb {
		t.Fatalf("media writes = %d, want 5MB (data+parity)", total)
	}
	if reads != 0 {
		t.Fatalf("full-stripe write read %d bytes, want 0 (no RMW)", reads)
	}
}

func TestRAID5SmallWriteRMW(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 5)
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(ds)...)
	// A single 4 KB write within one chunk: classic small-write penalty,
	// 2 reads (old data, old parity) + 2 writes (new data, new parity).
	run(e, func(p *sim.Proc) { a.WriteAt(ioreq.Writer(p), 0, 4*kb) })
	var reads, writes, bRead, bWritten int64
	for _, d := range ds {
		reads += counters(d).Read.Ops
		writes += counters(d).Write.Ops
		bRead += counters(d).Read.Bytes
		bWritten += counters(d).Write.Bytes
	}
	if reads != 2 || writes != 2 {
		t.Fatalf("RMW ops: %d reads, %d writes, want 2/2", reads, writes)
	}
	if bRead != 8*kb || bWritten != 8*kb {
		t.Fatalf("RMW bytes: read %d, wrote %d, want 8KB each", bRead, bWritten)
	}
}

func TestRAID5ParityRotates(t *testing.T) {
	e := sim.NewEngine()
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(disks(e, 5))...)
	seen := map[int]bool{}
	for row := int64(0); row < 5; row++ {
		pd, _ := a.raid5ParityPos(row)
		if seen[pd] {
			t.Fatalf("parity disk %d repeated within %d rows", pd, len(a.members))
		}
		seen[pd] = true
	}
}

func TestRAID5DataMappingNoParityCollision(t *testing.T) {
	e := sim.NewEngine()
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(disks(e, 5))...)
	// For every chunk in the first 40 rows, the data position must not
	// coincide with that row's parity position.
	nData := int64(len(a.members) - 1)
	for chunk := int64(0); chunk < 40*nData; chunk++ {
		d, phys := a.raid5Pos(chunk)
		row := chunk / nData
		pd, pphys := a.raid5ParityPos(row)
		if d == pd && phys == pphys {
			t.Fatalf("chunk %d maps onto parity (disk %d off %d)", chunk, d, phys)
		}
	}
}

func TestRAID5SequentialReadFasterThanJBOD(t *testing.T) {
	e := sim.NewEngine()
	j := NewJBOD(e, "j", asBlockDevs(disks(e, 1))...)
	tJ := run(e, func(p *sim.Proc) { j.ReadAt(ioreq.Reader(p), 0, 64*mb) })

	e2 := sim.NewEngine()
	r5 := NewRAID5(e2, "r5", 256*kb, asBlockDevs(disks(e2, 5))...)
	tR := run(e2, func(p *sim.Proc) { r5.ReadAt(ioreq.Reader(p), 0, 64*mb) })

	if tR >= tJ {
		t.Fatalf("RAID5 read (%v) not faster than JBOD (%v)", tR, tJ)
	}
}

func TestFlushAllMembers(t *testing.T) {
	e := sim.NewEngine()
	ds := disks(e, 3)
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(ds)...)
	run(e, func(p *sim.Proc) {
		a.WriteAt(ioreq.Writer(p), 0, 2*mb)
		a.Flush(ioreq.Meta(p))
	})
	// No assertion on time; just ensure it completes and is idempotent.
	run2 := sim.NewEngine()
	_ = run2
}

// Property: for any (offset, length) within capacity, the RAID 5 data
// mapping covers exactly the requested byte count, and no two segments
// on the same disk overlap.
func TestQuickRAID5MappingCoverage(t *testing.T) {
	e := sim.NewEngine()
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(disks(e, 5))...)
	f := func(offRaw, lenRaw uint32) bool {
		off := int64(offRaw) % (1 * gb)
		n := int64(lenRaw)%(64*mb) + 1
		segs := a.mapRAID5Data(nil, off, n)
		var total int64
		type key struct {
			d   int
			off int64
		}
		seen := map[key]bool{}
		for _, s := range segs {
			total += s.len
			for b := s.off; b < s.off+s.len; b += 256 * kb {
				k := key{s.disk, b / (256 * kb)}
				if seen[k] && s.len >= 256*kb {
					return false
				}
				seen[k] = true
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// perDisk returns sc's per-disk lists as one slice each.
func perDisk(sc *scratch) [][]segment {
	out := make([][]segment, 0, len(sc.bounds))
	lo := 0
	for _, hi := range sc.bounds {
		out = append(out, sc.groups[lo:hi])
		lo = hi
	}
	return out
}

// mergeSegmentsRef is the map-based grouping mergeSegments replaced:
// per-disk lists in order of each disk's first segment, physically
// adjacent extents coalesced.
func mergeSegmentsRef(segs []segment) [][]segment {
	byDisk := map[int][]segment{}
	var order []int
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

// Property: mergeSegments preserves total length. It groups exactly
// as the map-based reference does (same disk order, same lists), and
// a reused scratch carries nothing from one call to the next.
func TestQuickMergePreservesLength(t *testing.T) {
	sc := &scratch{seen: make([]bool, 5)}
	f := func(raw []uint16) bool {
		sc.segs = sc.segs[:0]
		off, total := int64(0), int64(0)
		for _, r := range raw {
			l := int64(r%512) + 1
			if r&0x200 != 0 {
				off += 4096 // a gap: not adjacent to its predecessor
			}
			sc.segs = append(sc.segs, segment{disk: int(r>>10) % 5, off: off, len: l})
			off += l
			total += l
		}
		want := mergeSegmentsRef(sc.segs)
		sc.mergeSegments()
		merged := int64(0)
		for _, s := range sc.groups {
			merged += s.len
		}
		if merged != total || !reflect.DeepEqual(perDisk(sc), want) {
			return false
		}
		for _, seen := range sc.seen {
			if seen {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// mirrorReadRef is the list-building RAID 1 read split mapMirrorRead
// replaced: 1 MB slices dealt round-robin over the healthy mirrors
// from the rotating cursor, one list per mirror in member order.
func mirrorReadRef(a *Array, off, n int64) [][]segment {
	const slice = 1 << 20
	var healthy []int
	for i := range a.members {
		if !a.failed[i] {
			healthy = append(healthy, i)
		}
	}
	perDisk := make([][]segment, len(a.members))
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

// Property: mapMirrorRead splits a RAID 1 read exactly as the
// list-building reference does, with and without a failed mirror,
// from any cursor position.
func TestQuickMirrorReadMatchesReference(t *testing.T) {
	f := func(members, fail, cursor uint8, offRaw, lenRaw uint32) bool {
		e := sim.NewEngine()
		a := NewRAID1(e, "r1", asBlockDevs(disks(e, 2+int(members%3)))...)
		if fail%2 == 1 {
			a.Fail(int(fail/2) % len(a.members))
		}
		a.rrNext = int(cursor)
		off, n := int64(offRaw), int64(lenRaw)%(16*mb)+1
		want := mirrorReadRef(a, off, n)
		a.rrNext = int(cursor)
		sc := a.takeScratch()
		a.mapMirrorRead(sc, off, n)
		return reflect.DeepEqual(perDisk(sc), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRAID5LargeWrite(b *testing.B) {
	e := sim.NewEngine()
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(disks(e, 5))...)
	e.Spawn("w", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			a.WriteAt(ioreq.Writer(p), int64(i%100)*4*mb, 4*mb)
		}
	})
	b.ResetTimer()
	e.Run()
}

// allocsPerOp runs op n times on one spawned process and returns the
// allocations per op (the spawn adds about 10 per run).
func allocsPerOp(e *sim.Engine, n int, op func(p *sim.Proc, i int)) float64 {
	run := func() {
		e.Spawn("op", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				op(p, i)
			}
		})
		e.Run()
	}
	return testing.AllocsPerRun(5, run) / float64(n)
}

// TestRAID5Allocs pins a RAID 5 full-row read (4 data members) and
// full-row write (4 data + parity) at what the fan-out itself costs.
// The mapping, grouping and Fork arguments come from the array's
// scratch, each forked member's request view from its diskTask, the
// spans from the span pool and the forked children from the engine's
// pool of finished ones; what is left is the op's own Request. A race
// build allows one more per span (the array and each member), since
// its pool drops a quarter of them.
func TestRAID5Allocs(t *testing.T) {
	e := sim.NewEngine()
	a := NewRAID5(e, "r5", 256*kb, asBlockDevs(disks(e, 5))...)
	row := 4 * 256 * kb
	cases := []struct {
		name    string
		members int
		op      func(p *sim.Proc, i int)
	}{
		{"read", 4, func(p *sim.Proc, i int) { a.ReadAt(ioreq.Reader(p), int64(i%64)*row, row) }},
		{"full-row write", 5, func(p *sim.Proc, i int) { a.WriteAt(ioreq.Writer(p), int64(i%64)*row, row) }},
	}
	for _, tc := range cases {
		limit := 1.05
		if racebuild.Enabled {
			limit += float64(1 + tc.members)
		}
		if per := allocsPerOp(e, 2000, tc.op); per > limit {
			t.Errorf("%s: %.3f allocs per op, want <= %.2f", tc.name, per, limit)
		}
	}
}

// extentOp is one member request: its direction and extent.
type extentOp struct {
	write    bool
	off, len int64
}

// logDev is a member that records every request it serves and takes
// a fixed millisecond for each.
type logDev struct {
	log []extentOp
}

func (d *logDev) ReadAt(r *ioreq.Request, off, n int64) {
	d.log = append(d.log, extentOp{false, off, n})
	r.Proc().Sleep(sim.Millisecond)
}

func (d *logDev) WriteAt(r *ioreq.Request, off, n int64) {
	d.log = append(d.log, extentOp{true, off, n})
	r.Proc().Sleep(sim.Millisecond)
}

func (d *logDev) Flush(*ioreq.Request) {}
func (d *logDev) Capacity() int64      { return 230 * gb }
func (d *logDev) Name() string         { return "log" }

// TestRAID5ScratchReentry runs two requests on one RAID 5 array, the
// second entering while the first is parked in its stripe Fork with
// more segments to go on some members. Each member must serve exactly
// the extents the two requests ask for when run alone: a scratch
// shared between the calls would let the second's mapping overwrite
// the per-disk lists the first's children are still walking.
func TestRAID5ScratchReentry(t *testing.T) {
	row := 4 * 256 * kb
	first := func(p *sim.Proc, a *Array) { a.ReadAt(ioreq.Reader(p), 0, 5*row) } // two segments on three members
	second := func(p *sim.Proc, a *Array) { a.WriteAt(ioreq.Writer(p), 64*mb+128*kb, 3*row) }
	array := func() (*Array, []*logDev) {
		ds := make([]*logDev, 5)
		bs := make([]device.BlockDev, 5)
		for i := range ds {
			ds[i] = &logDev{}
			bs[i] = ds[i]
		}
		return NewRAID5(sim.NewEngine(), "r5", 256*kb, bs...), ds
	}
	want := make([][]extentOp, 5)
	for _, op := range []func(*sim.Proc, *Array){first, second} {
		a, ds := array()
		a.eng.Spawn("alone", func(p *sim.Proc) { op(p, a) })
		a.eng.Run()
		for i, d := range ds {
			want[i] = append(want[i], d.log...)
		}
	}

	a, ds := array()
	var firstEnd, secondStart sim.Time
	a.eng.Spawn("first", func(p *sim.Proc) { first(p, a); firstEnd = p.Now() })
	a.eng.SpawnAfter(sim.Millisecond/2, "second", func(p *sim.Proc) { secondStart = p.Now(); second(p, a) })
	a.eng.Run()
	if secondStart >= firstEnd {
		t.Fatalf("second request entered at %v, after the first finished at %v", secondStart, firstEnd)
	}
	if len(a.spare) != 2 {
		t.Errorf("array holds %d scratch buffers, want 2 (one per call inside it at once)", len(a.spare))
	}
	byExtent := func(x, y extentOp) int {
		return cmp.Or(cmp.Compare(x.off, y.off), cmp.Compare(x.len, y.len), cmp.Compare(btoi(x.write), btoi(y.write)))
	}
	for i, d := range ds {
		slices.SortFunc(d.log, byExtent)
		slices.SortFunc(want[i], byExtent)
		if !slices.Equal(d.log, want[i]) {
			t.Errorf("member %d served %+v, want %+v", i, d.log, want[i])
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
