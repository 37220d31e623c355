package mpiio_test

import (
	"fmt"
	"testing"

	"ioeval/internal/fs"
	"ioeval/internal/mpiio"
	"ioeval/internal/netsim"
	"ioeval/internal/sim"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

// BenchmarkComputePlan plans one BT-IO class C dump on 16 ranks: 6 561
// extents of 1 600 or 1 640 B per rank on average, expanded by the
// spec's own write step, over 8 nodes (8 aggregators).
func BenchmarkComputePlan(b *testing.B) {
	const procs = 16
	spec := btio.New(btio.Config{Class: btio.ClassC, Procs: procs, Subtype: btio.Full}).Spec()
	var dump *synth.StepSpec
	for pi := range spec.Phases {
		for si := range spec.Phases[pi].Steps {
			if st := &spec.Phases[pi].Steps[si]; st.Op == synth.OpWrite {
				dump = st
			}
		}
	}
	vecs := make([][]fs.IOVec, procs)
	nodes := make([]string, procs)
	extents := 0
	for r := range vecs {
		vecs[r] = dump.AppendVecs(nil, r, 0)
		nodes[r] = fmt.Sprintf("n%d", r%8)
		extents += len(vecs[r])
	}
	if extents != procs*6561 {
		b.Fatalf("%d extents, want %d", extents, procs*6561)
	}
	e := sim.NewEngine()
	comm := netsim.New(e, netsim.GigabitEthernet("comm"))
	for i := 0; i < 8; i++ {
		comm.Attach(fmt.Sprintf("n%d", i))
	}
	w := mpiio.NewWorld(e, comm, nodes)
	f := mpiio.OpenFile(w, "/btio.out", fs.OWrite|fs.OCreate, make([]fs.Interface, procs), mpiio.DefaultHints())
	want := btio.New(btio.Config{Class: btio.ClassC, Procs: procs}).DumpBytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mpiio.PlanCollective(f, vecs); got != want {
			b.Fatalf("plan covers %d bytes, want one dump of %d", got, want)
		}
	}
}
