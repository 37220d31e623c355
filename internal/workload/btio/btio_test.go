package btio_test

import (
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/fs"
	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
	"ioeval/internal/trace"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

// quickClass is a reduced class for fast tests (4 dumps).
var quickClass = btio.Class{Name: "Q", N: 64, Steps: 20, WriteInterval: 5, ComputeTotal: 10 * sim.Second}

// dumpRecords expands rank's records for the first dump from the
// spec's dump write step: the access list the run issues.
func dumpRecords(t *testing.T, a *btio.App, rank int) []fs.IOVec {
	t.Helper()
	for _, ph := range a.Spec().Phases {
		for i := range ph.Steps {
			if st := &ph.Steps[i]; ph.Name == "dump" && st.Op == synth.OpWrite {
				return st.AppendVecs(nil, rank, 0)
			}
		}
	}
	t.Fatal("spec has no dump write step")
	return nil
}

func TestDecompositionMatchesPaperTable2(t *testing.T) {
	// Class C, 16 procs: 6561 records per process per dump, sizes 1600
	// and 1640 bytes (the paper's 1.56 KB and 1.6 KB).
	a := btio.New(btio.Config{Class: btio.ClassC, Procs: 16, Subtype: btio.Simple})
	// Per-rank counts vary by ±1 around 6561 with the uneven 41/40
	// cell split; the total is exact.
	var perDump int
	for r := 0; r < 16; r++ {
		got := len(dumpRecords(t, a, r))
		if got < 6560 || got > 6562 {
			t.Fatalf("rank %d records per dump = %d, want ~6561", r, got)
		}
		perDump += got
	}
	if perDump != 16*6561 {
		t.Fatalf("records per dump (all ranks) = %d, want %d", perDump, 16*6561)
	}
	sizes := map[int64]int{}
	for _, v := range dumpRecords(t, a, 3) {
		sizes[v.Len]++
	}
	if len(sizes) > 2 {
		t.Fatalf("record sizes = %v, want only 1600/1640", sizes)
	}
	if sizes[1600] == 0 || sizes[1640] == 0 {
		t.Fatalf("record sizes = %v, want 1600 and 1640 bytes", sizes)
	}
	// Totals: 40 dumps × 104,976 records = 4,199,040 operations.
	if total := a.Dumps() * perDump; total != 4199040 {
		t.Fatalf("total write ops = %d, want 4199040", total)
	}
}

func TestDecompositionMatchesPaperTable5(t *testing.T) {
	// Class C, 64 procs: 800- and 840-byte records.
	a := btio.New(btio.Config{Class: btio.ClassC, Procs: 64, Subtype: btio.Simple})
	sizes := map[int64]int{}
	for _, v := range dumpRecords(t, a, 17) {
		sizes[v.Len]++
	}
	if sizes[800] == 0 || sizes[840] == 0 {
		t.Fatalf("record sizes = %v, want 800 and 840 bytes", sizes)
	}
}

func TestDumpBytesClassC(t *testing.T) {
	a := btio.New(btio.Config{Class: btio.ClassC, Procs: 16})
	want := int64(162) * 162 * 162 * 40
	if got := a.DumpBytes(); got != want {
		t.Fatalf("dump bytes = %d, want %d (~170MB)", got, want)
	}
}

func TestCellsCoverGridExactly(t *testing.T) {
	// Union of all ranks' records for one dump must cover the dump
	// bytes exactly once.
	for _, procs := range []int{4, 16} {
		a := btio.New(btio.Config{Class: btio.Class{Name: "t", N: 12, Steps: 5, WriteInterval: 5}, Procs: procs})
		covered := map[int64]int{}
		for r := 0; r < procs; r++ {
			for _, v := range dumpRecords(t, a, r) {
				for b := v.Off; b < v.Off+v.Len; b += btio.BytesPerPoint {
					covered[b]++
				}
			}
		}
		wantPoints := 12 * 12 * 12
		if len(covered) != wantPoints {
			t.Fatalf("procs=%d: covered %d points, want %d", procs, len(covered), wantPoints)
		}
		for off, n := range covered {
			if n != 1 {
				t.Fatalf("procs=%d: offset %d covered %d times", procs, off, n)
			}
		}
	}
}

func TestNonSquareProcsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	btio.New(btio.Config{Class: btio.ClassA, Procs: 6})
}

func TestFullRunProducesPaperOpCounts(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	tr := trace.New()
	a := btio.New(btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full})
	res, err := a.Run(c, tr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	p := tr.Profile()
	// full: one collective op per rank per dump, writes then reads.
	wantOps := int64(4 * a.Dumps())
	if p.NumWrites != wantOps || p.NumReads != wantOps {
		t.Fatalf("ops: w=%d r=%d, want %d each", p.NumWrites, p.NumReads, wantOps)
	}
	if p.NumProcs != 4 || p.NumFiles != 1 {
		t.Fatalf("procs=%d files=%d", p.NumProcs, p.NumFiles)
	}
	if res.ExecTime <= 0 || res.IOTime <= 0 {
		t.Fatalf("result times: %+v", res)
	}
	if res.IOTime > res.ExecTime {
		t.Fatalf("IO time %v exceeds exec time %v", res.IOTime, res.ExecTime)
	}
}

func TestSimpleRunProducesPaperOpCounts(t *testing.T) {
	c := cluster.Aohyper(cluster.JBOD)
	tr := trace.New()
	a := btio.New(btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Simple})
	if _, err := a.Run(c, tr); err != nil {
		t.Fatalf("run: %v", err)
	}
	p := tr.Profile()
	wantOps := int64(4 * a.Dumps() * len(dumpRecords(t, a, 0)))
	if p.NumWrites != wantOps || p.NumReads != wantOps {
		t.Fatalf("ops: w=%d r=%d, want %d each", p.NumWrites, p.NumReads, wantOps)
	}
}

func TestFullFasterThanSimple(t *testing.T) {
	run := func(st btio.Subtype) sim.Duration {
		c := cluster.Aohyper(cluster.RAID5)
		a := btio.New(btio.Config{Class: quickClass, Procs: 4, Subtype: st})
		res, err := a.Run(c, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.IOTime
	}
	full, simple := run(btio.Full), run(btio.Simple)
	if simple < 2*full {
		t.Fatalf("simple I/O time (%v) not ≫ full (%v)", simple, full)
	}
}

func TestPhasesMatchPaperStructure(t *testing.T) {
	// Full subtype: 40 write phases (one per dump, separated by
	// compute/comm) and 1 read phase (Fig. 8's description).
	c := cluster.Aohyper(cluster.RAID5)
	tr := trace.New()
	a := btio.New(btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full, ComputeScale: 0.1})
	if _, err := a.Run(c, tr); err != nil {
		t.Fatalf("run: %v", err)
	}
	var writePhases, readPhases int
	for _, ph := range tr.Phases(0) {
		if ph.Kind == mpiio.OpWrite {
			writePhases++
		} else {
			readPhases++
		}
	}
	if writePhases != a.Dumps() {
		t.Fatalf("write phases = %d, want %d", writePhases, a.Dumps())
	}
	if readPhases != 1 {
		t.Fatalf("read phases = %d, want 1", readPhases)
	}
}

func TestComputeScaleIncreasesExecNotIO(t *testing.T) {
	run := func(scale float64) (exec, io sim.Duration) {
		c := cluster.Aohyper(cluster.RAID5)
		a := btio.New(btio.Config{Class: quickClass, Procs: 4, Subtype: btio.Full, ComputeScale: scale})
		res, err := a.Run(c, nil)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return res.ExecTime, res.IOTime
	}
	e0, io0 := run(0)
	e1, io1 := run(1.0)
	if e1 <= e0 {
		t.Fatalf("compute scale did not increase exec time (%v vs %v)", e1, e0)
	}
	diff := io1 - io0
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.25*float64(io0) {
		t.Fatalf("compute scale changed IO time too much: %v vs %v", io1, io0)
	}
}
