package mpiio

import (
	"testing"
	"testing/quick"

	"ioeval/internal/fs"
	"ioeval/internal/sim"
)

func TestViewValidate(t *testing.T) {
	bad := []View{
		{Frame: 0, Tiles: []fs.IOVec{{Off: 0, Len: 1}}},
		{Frame: 10, Tiles: nil},
		{Frame: 10, Tiles: []fs.IOVec{{Off: 8, Len: 4}}},                   // tile beyond frame
		{Frame: 10, Tiles: []fs.IOVec{{Off: 4, Len: 2}, {Off: 0, Len: 2}}}, // unsorted
		{Frame: 10, Tiles: []fs.IOVec{{Off: 0, Len: 4}, {Off: 2, Len: 2}}}, // overlap
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad view %d validated: %+v", i, v)
		}
	}
	good := StridedView(100, 2, 4, 1024)
	if err := good.Validate(); err != nil {
		t.Errorf("good view rejected: %v", err)
	}
}

func TestStridedViewTranslation(t *testing.T) {
	// 4 ranks, 1 KiB blocks: rank 2 sees file offsets 2048..3071,
	// 6144..7167, ... as a dense stream.
	v := StridedView(0, 2, 4, 1024)
	vecs := v.translate(0, 3*1024)
	want := []fs.IOVec{
		{Off: 2048, Len: 1024},
		{Off: 4096 + 2048, Len: 1024},
		{Off: 2*4096 + 2048, Len: 1024},
	}
	if len(vecs) != len(want) {
		t.Fatalf("vecs = %+v", vecs)
	}
	for i := range want {
		if vecs[i] != want[i] {
			t.Fatalf("vec %d = %+v, want %+v", i, vecs[i], want[i])
		}
	}
}

func TestTranslationMidTileAndMerge(t *testing.T) {
	v := View{Disp: 10, Frame: 100, Tiles: []fs.IOVec{{Off: 0, Len: 50}, {Off: 50, Len: 10}}}
	// The frame payload is 60 bytes: 40 bytes from position 25 take the
	// rest of tile 0 (25) + tile 1 (10) — contiguous in file space, so
	// merged — then spill 5 bytes into the next frame's tile 0.
	vecs := v.translate(25, 40)
	want := []fs.IOVec{{Off: 35, Len: 35}, {Off: 110, Len: 5}}
	if len(vecs) != 2 || vecs[0] != want[0] || vecs[1] != want[1] {
		t.Fatalf("vecs = %+v, want %+v", vecs, want)
	}
}

func TestViewIO(t *testing.T) {
	tc := newTestCluster(2, 4)
	f := OpenFile(tc.world, "/viewed", fs.ORead|fs.OWrite|fs.OCreate, tc.mounts, Hints{})
	const block = 256 << 10
	tc.runRanks(func(p *sim.Proc, rank int) {
		if err := f.Open(p, rank); err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if err := f.SetView(rank, StridedView(0, rank, 4, block)); err != nil {
			t.Errorf("set view: %v", err)
			return
		}
		// Stream 4 blocks through the view: round-robin interleave.
		if n := f.Write(p, rank, 4*block); n != 4*block {
			t.Errorf("rank %d wrote %d", rank, n)
		}
		tc.world.Barrier(p, rank)
		f.SeekView(rank, 0)
		if n := f.Read(p, rank, 4*block); n != 4*block {
			t.Errorf("rank %d read %d", rank, n)
		}
		f.Close(p, rank)
	})
	// All ranks interleaved: the file is dense, 4 ranks × 4 blocks.
	if got := tc.srv.Telemetry().Snapshot().Counters.Write.Bytes; got != 16*block {
		t.Fatalf("server wrote %d, want %d", got, 16*block)
	}
}

func TestViewCollective(t *testing.T) {
	tc := newTestCluster(2, 4)
	f := OpenFile(tc.world, "/viewed", fs.OWrite|fs.OCreate, tc.mounts, DefaultHints())
	const block = 64 << 10
	tc.runRanks(func(p *sim.Proc, rank int) {
		f.Open(p, rank)
		f.SetView(rank, StridedView(0, rank, 4, block))
		f.WriteAll(p, rank, 8*block)
		f.Close(p, rank)
	})
	if got := tc.srv.Telemetry().Snapshot().Counters.Write.Bytes; got != 32*block {
		t.Fatalf("server wrote %d, want %d", got, 32*block)
	}
}

func TestUseViewWithoutSetPanics(t *testing.T) {
	tc := newTestCluster(1, 1)
	f := OpenFile(tc.world, "/f", fs.OWrite|fs.OCreate, tc.mounts, Hints{})
	tc.eng.Spawn("r", func(p *sim.Proc) {
		f.Open(p, 0)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f.Write(p, 0, 1024)
	})
	tc.eng.Run()
}

// Property: translating any [pos, pos+n) covers exactly n bytes, with
// ascending non-overlapping file extents that all land inside tiles.
func TestQuickViewTranslation(t *testing.T) {
	v := View{Disp: 7, Frame: 1000, Tiles: []fs.IOVec{
		{Off: 10, Len: 100}, {Off: 200, Len: 50}, {Off: 600, Len: 300},
	}}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	payload := v.payload()
	f := func(posRaw, nRaw uint16) bool {
		pos := int64(posRaw) % (20 * payload)
		n := int64(nRaw)%5000 + 1
		vecs := v.translate(pos, n)
		var total int64
		lastEnd := int64(-1)
		for _, x := range vecs {
			if x.Off <= lastEnd {
				return false
			}
			lastEnd = x.Off + x.Len
			total += x.Len
			// Extent must sit inside some tile of some frame.
			rel := (x.Off - v.Disp) % v.Frame
			inTile := false
			for _, tl := range v.Tiles {
				if rel >= tl.Off && rel+x.Len <= tl.Off+tl.Len {
					inTile = true
				}
			}
			if !inTile {
				return false
			}
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
