package device

import (
	"testing"
	"testing/quick"

	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

func TestMergeRuns(t *testing.T) {
	in := []Run{
		{Off: 0, Len: 100},
		{Off: 100, Len: 50},  // touches previous: merge
		{Off: 120, Len: 10},  // inside previous: absorbed
		{Off: 200, Len: 10},  // gap: new run
		{Off: 205, Len: 100}, // overlaps previous: merge/extend
	}
	out := ioreq.Merge(in)
	want := []Run{{Off: 0, Len: 150}, {Off: 200, Len: 105}}
	if len(out) != len(want) {
		t.Fatalf("out = %+v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %+v, want %+v", i, out[i], want[i])
		}
	}
}

func TestMergeRunsDegenerate(t *testing.T) {
	if out := ioreq.Merge(nil); len(out) != 0 {
		t.Fatal("nil input")
	}
	one := []Run{{Off: 5, Len: 5}}
	if out := ioreq.Merge(one); len(out) != 1 || out[0] != one[0] {
		t.Fatal("single input")
	}
}

func TestReadWriteRunsFallback(t *testing.T) {
	// A plain disk does not implement RunDev: the helpers must loop.
	e := sim.NewEngine()
	d := newTestDisk(e)
	e.Spawn("t", func(p *sim.Proc) {
		ReadRuns(ioreq.Reader(p), d, []Run{{Off: 0, Len: mb}, {Off: 10 * mb, Len: mb}})
		WriteRuns(ioreq.Writer(p), d, []Run{{Off: 0, Len: mb}})
	})
	e.Run()
	c := d.Telemetry().Snapshot().Counters
	if c.Read.Ops != 2 || c.Write.Ops != 1 {
		t.Fatalf("ops: read %d write %d", c.Read.Ops, c.Write.Ops)
	}
	if c.Read.Bytes != 2*mb || c.Write.Bytes != mb {
		t.Fatalf("bytes: read %d write %d", c.Read.Bytes, c.Write.Bytes)
	}
}

func TestDiskAccessors(t *testing.T) {
	e := sim.NewEngine()
	d := newTestDisk(e)
	if d.Name() != "d0" {
		t.Fatalf("name = %q", d.Name())
	}
	if d.Params().RPM != 7200 {
		t.Fatalf("params = %+v", d.Params())
	}
	e.Spawn("t", func(p *sim.Proc) { d.ReadAt(ioreq.Reader(p), 0, mb) })
	e.Run()
	if u := d.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %f", u)
	}
}

// Property: ioreq.Merge of sorted runs preserves total coverage (union
// of byte ranges) and outputs strictly ascending disjoint runs.
func TestQuickMergeRuns(t *testing.T) {
	f := func(raw []uint16) bool {
		var in []Run
		off := int64(0)
		for _, v := range raw {
			off += int64(v % 512)
			l := int64(v%1024) + 1
			in = append(in, Run{Off: off, Len: l})
			off += l
		}
		// Coverage before (ranges may already overlap if gap was 0).
		covered := map[int64]bool{}
		for _, r := range in {
			for b := r.Off; b < r.Off+r.Len; b += 64 {
				covered[b/64] = true
			}
		}
		out := ioreq.Merge(append([]Run{}, in...))
		lastEnd := int64(-1)
		var outCover int
		for _, r := range out {
			if r.Off <= lastEnd {
				return false
			}
			lastEnd = r.Off + r.Len
			outCover += int(r.Len)
		}
		// The merged cover must include every input byte.
		for _, r := range in {
			found := false
			for _, o := range out {
				if r.Off >= o.Off && r.Off+r.Len <= o.Off+o.Len {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
