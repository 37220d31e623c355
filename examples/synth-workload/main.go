// synth-workload walks through the declarative synthetic-workload
// plane: load a phase-graph spec from JSON, compile and evaluate it
// with the methodology pipeline, and close the loop by inferring a
// runnable spec back from a captured trace.
//
// The committed spec files in this directory are the specs the BT-IO
// and MADbench2 packages generate and run (emitted by
// `iosynth -emit ... -quick`); a test keeps them in sync with the
// generators.
//
// Run with: go run ./examples/synth-workload
package main

import (
	"fmt"
	"log"
	"reflect"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/trace"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/synth"
)

func main() {
	build := func() *cluster.Cluster { return cluster.Aohyper(cluster.RAID5) }
	charCfg := core.CharacterizeConfig{
		FSBlockSizes:   []int64{64 << 10, 1 << 20, 4 << 20},
		FSModes:        []bench.Mode{bench.SeqWrite, bench.SeqRead},
		LocalFileSize:  512 << 20,
		GlobalFileSize: 512 << 20,
		LibProcs:       4,
		LibBlockSizes:  []int64{4 << 20, 32 << 20},
		LibTransfer:    256 << 10,
		LibFileSize:    256 << 20,
		RandomOps:      128,
	}
	sess := core.NewSession(build, core.WithCharacterizeConfig(charCfg))
	ch, err := sess.Characterization()
	if err != nil {
		log.Fatal(err)
	}

	// 1. A spec file is a complete workload: parse, compile, evaluate.
	spec, err := synth.LoadSpec("examples/synth-workload/btio-full.json")
	if err != nil {
		log.Fatal(err)
	}
	app, err := synth.Compile(spec)
	if err != nil {
		log.Fatal(err)
	}
	declR, declW := spec.DeclaredBytes()
	fmt.Printf("spec %q: %d ranks, %d phases, declares %d B read / %d B written\n\n",
		app.Name(), spec.Procs, len(spec.Phases), declR, declW)
	ev, err := core.NewSession(build, core.WithCharacterization(ch)).Evaluate(app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(core.FormatEvaluation(ev))

	// 2. Trace → spec inference: capture BT-IO's timeline and derive a
	// replayable spec from it.
	cfg := btio.Config{Class: btio.ClassA, Procs: 4, Subtype: btio.Full, ComputeScale: 1}
	tr := trace.New()
	if _, err := btio.New(cfg).Run(build(), tr); err != nil {
		log.Fatal(err)
	}
	inferred, err := trace.InferSpec(tr, "btio-inferred")
	if err != nil {
		log.Fatal(err)
	}
	replay, err := synth.Compile(inferred)
	if err != nil {
		log.Fatal(err)
	}
	tr2 := trace.New()
	if _, err := replay.Run(build(), tr2); err != nil {
		log.Fatal(err)
	}
	p1, p2 := tr.Profile(), tr2.Profile()
	p1.ExecTime, p2.ExecTime = 0, 0
	p1.IOTime, p2.IOTime = 0, 0
	fmt.Printf("inference: %d events -> %d-phase spec -> replay profile matches: %v\n",
		len(tr.Events()), len(inferred.Phases), reflect.DeepEqual(p1, p2))
}
