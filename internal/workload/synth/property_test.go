package synth_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ioeval/internal/mpiio"
	"ioeval/internal/trace"
	"ioeval/internal/workload/synth"
)

// randomSpec generates a valid phase graph from the seeded source:
// 1–4 ranks, shared and per-rank files on NFS or local storage, and a
// random mix of reads, writes, computes, sends, barriers, and syncs.
// A preload phase first writes each file's full extent so every later
// read is backed — the filesystem returns short reads past EOF, and
// the conservation property needs actual bytes to equal declared.
func randomSpec(r *rand.Rand, idx int) *synth.Spec {
	const extent = 1 << 20 // generated accesses stay well inside this
	np := 1 + r.Intn(4)
	nFiles := 1 + r.Intn(2)

	var files []synth.FileSpec
	var preload []synth.StepSpec
	for i := 0; i < nFiles; i++ {
		f := synth.FileSpec{
			Name:                fmt.Sprintf("f%d", i),
			Path:                fmt.Sprintf("/prop%d-%d", idx, i),
			PerRank:             r.Intn(3) == 0,
			CollectiveBuffering: r.Intn(2) == 0,
		}
		if f.PerRank && r.Intn(2) == 0 {
			f.Mount = "local"
		}
		files = append(files, f)
		preload = append(preload, synth.StepSpec{
			Op: synth.OpWrite, File: f.Name,
			Access: []synth.AccessSpec{{OffsetBytes: 0, BlockBytes: extent}},
		})
	}

	randAccess := func() synth.AccessSpec {
		a := synth.AccessSpec{
			OffsetBytes: int64(r.Intn(64 << 10)),
			BlockBytes:  int64(1 + r.Intn(8<<10)),
		}
		for d := r.Intn(3); d > 0; d-- {
			a.Dims = append(a.Dims, synth.DimSpec{
				Count:       1 + r.Intn(3),
				StrideBytes: int64(r.Intn(16 << 10)),
			})
		}
		return a
	}
	randIOStep := func(op string) synth.StepSpec {
		st := synth.StepSpec{
			Op:              op,
			File:            files[r.Intn(nFiles)].Name,
			Collective:      r.Intn(3) == 0,
			SyncAfter:       op == synth.OpWrite && r.Intn(4) == 0,
			LoopStrideBytes: int64(r.Intn(16 << 10)),
			RankStrideBytes: int64(r.Intn(16 << 10)),
		}
		if r.Intn(3) == 0 {
			st.RateKey = fmt.Sprintf("k%d", r.Intn(3))
		}
		if r.Intn(4) == 0 {
			st.PerRankAccess = make([][]synth.AccessSpec, np)
			for rank := 0; rank < np; rank++ {
				for n := r.Intn(3); n > 0; n-- {
					st.PerRankAccess[rank] = append(st.PerRankAccess[rank], randAccess())
				}
			}
			// All-empty per-rank lists are valid only on collective steps
			// in spirit; give rank 0 at least one access instead.
			if len(st.PerRankAccess[0]) == 0 {
				st.PerRankAccess[0] = []synth.AccessSpec{randAccess()}
			}
		} else {
			for n := 1 + r.Intn(2); n > 0; n-- {
				st.Access = append(st.Access, randAccess())
			}
		}
		return st
	}

	phases := []synth.PhaseSpec{{Name: "preload", Steps: preload, Next: "p0"}}
	nPhases := 1 + r.Intn(3)
	for p := 0; p < nPhases; p++ {
		ph := synth.PhaseSpec{Name: fmt.Sprintf("p%d", p), Loop: 1 + r.Intn(3)}
		if p+1 < nPhases {
			ph.Next = fmt.Sprintf("p%d", p+1)
		}
		for s := 1 + r.Intn(4); s > 0; s-- {
			switch r.Intn(6) {
			case 0:
				ph.Steps = append(ph.Steps, synth.StepSpec{Op: synth.OpCompute, ComputeNS: int64(1 + r.Intn(1e6))})
			case 1:
				if np > 1 {
					ph.Steps = append(ph.Steps, synth.StepSpec{
						Op: synth.OpSend, ToRankOffset: 1 + r.Intn(np-1),
						Messages: 1 + r.Intn(3), MessageBytes: int64(1 + r.Intn(64<<10)),
					})
				}
			case 2:
				ph.Steps = append(ph.Steps, synth.StepSpec{Op: synth.OpBarrier})
			case 3:
				ph.Steps = append(ph.Steps, synth.StepSpec{Op: synth.OpSync, File: files[r.Intn(nFiles)].Name})
			case 4:
				ph.Steps = append(ph.Steps, randIOStep(synth.OpRead))
			default:
				ph.Steps = append(ph.Steps, randIOStep(synth.OpWrite))
			}
		}
		if len(ph.Steps) == 0 {
			ph.Steps = append(ph.Steps, synth.StepSpec{Op: synth.OpBarrier})
		}
		phases = append(phases, ph)
	}
	return &synth.Spec{
		Name:   fmt.Sprintf("prop-%d", idx),
		Procs:  np,
		Files:  files,
		Start:  "preload",
		Phases: phases,
	}
}

// tracedBytes sums event bytes by direction.
func tracedBytes(tr *trace.Tracer) (read, written int64) {
	for _, ev := range tr.Events() {
		switch ev.Op {
		case mpiio.OpRead, mpiio.OpReadAll:
			read += ev.Bytes
		case mpiio.OpWrite, mpiio.OpWriteAll:
			written += ev.Bytes
		}
	}
	return read, written
}

// TestSynthPropertyConservationAndDeterminism drives randomly
// generated phase graphs through the engine and checks the compiler's
// core promises on each: the run terminates, every spec-declared byte
// is traced (conservation), the Result agrees with the trace, and a
// second run on a fresh cluster is byte- and timestamp-identical.
func TestSynthPropertyConservationAndDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		spec := randomSpec(r, i)
		app, err := synth.Compile(spec)
		if err != nil {
			t.Fatalf("spec %d rejected by its own generator: %v", i, err)
		}
		declR, declW := spec.DeclaredBytes()

		tr1 := trace.New()
		res1, err := app.Run(goldenCluster(), tr1)
		if err != nil {
			t.Fatalf("spec %d run 1: %v", i, err)
		}
		gotR, gotW := tracedBytes(tr1)
		if gotR != declR || gotW != declW {
			t.Fatalf("spec %d conservation: traced r=%d w=%d, declared r=%d w=%d\n%+v",
				i, gotR, gotW, declR, declW, spec)
		}
		if res1.BytesRead != declR || res1.BytesWritten != declW {
			t.Fatalf("spec %d result bytes r=%d w=%d, declared r=%d w=%d",
				i, res1.BytesRead, res1.BytesWritten, declR, declW)
		}
		if res1.ExecTime <= 0 {
			t.Fatalf("spec %d exec time %v", i, res1.ExecTime)
		}

		tr2 := trace.New()
		res2, err := app.Run(goldenCluster(), tr2)
		if err != nil {
			t.Fatalf("spec %d run 2: %v", i, err)
		}
		if !reflect.DeepEqual(res1, res2) {
			t.Fatalf("spec %d nondeterministic result:\n1: %+v\n2: %+v", i, res1, res2)
		}
		e1, e2 := tr1.Events(), tr2.Events()
		if len(e1) != len(e2) {
			t.Fatalf("spec %d nondeterministic event count: %d vs %d", i, len(e1), len(e2))
		}
		for j := range e1 {
			if e1[j] != e2[j] {
				t.Fatalf("spec %d event %d differs:\n1: %+v\n2: %+v", i, j, e1[j], e2[j])
			}
		}
	}
}

// TestSynthPropertyRoundTrip: every generated spec survives
// JSON serialization losslessly (parse(write(s)) validates and
// declares the same bytes).
func TestSynthPropertyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		spec := randomSpec(r, i)
		var buf bytes.Buffer
		if err := spec.WriteJSON(&buf); err != nil {
			t.Fatalf("spec %d write: %v", i, err)
		}
		back, err := synth.ParseSpec(buf.Bytes())
		if err != nil {
			t.Fatalf("spec %d re-parse: %v\n%s", i, err, buf.Bytes())
		}
		if !reflect.DeepEqual(spec, back) {
			t.Fatalf("spec %d round trip drifted:\nout:  %+v\nback: %+v", i, spec, back)
		}
	}
}
