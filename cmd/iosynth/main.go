// Command iosynth runs declarative synthetic workloads — phase-graph
// specs compiled by internal/workload/synth — through the paper's
// full methodology: characterize the cluster, evaluate the spec under
// the tracer, and report the used-percentage tables, optionally side
// by side with a fault scenario.
//
// Run a spec:
//
//	iosynth -spec workload.json [-platform aohyper|clusterA]
//	        [-org jbod|raid1|raid5] [-pfs N] [-quick]
//	        [-fault scenario] [-seed N] [-spans] [-metrics out.json]
//	        [-store DIR] [-utilization]
//
// Emit the spec an application package generates and runs (BT-IO and
// MADbench2 are spec generators) for editing and re-running:
//
//	iosynth -emit btio-full|btio-simple|madbench-shared|madbench-unique
//	        [-procs N] [-quick] [-out workload.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/catalog"
	"ioeval/internal/core"
	"ioeval/internal/stats"
	"ioeval/internal/workload/synth"
)

func main() {
	m := cliutil.MethodFlags(flag.CommandLine)
	specPath := flag.String("spec", "", "synthetic-workload spec (JSON) to evaluate")
	emit := cliutil.EnumFlag(flag.CommandLine, "emit", "", "write a generator's spec instead of running: btio-full, btio-simple, madbench-shared or madbench-unique", catalog.Workloads[:4]...)
	out := flag.String("out", "", "output file for -emit (default stdout)")
	procs := flag.Int("procs", 16, "MPI processes for -emit generators")
	quick := flag.Bool("quick", false, "reduced characterization and generator problem sizes")
	cliutil.Parse()

	if *emit != "" {
		cliutil.Check(emitSpec(*emit, cliutil.Valid(catalog.Workload(*emit, *procs, *quick)), *out))
		return
	}
	if *specPath == "" {
		cliutil.FatalUsage()
	}

	spec := cliutil.Must(synth.LoadSpec(*specPath))
	app := cliutil.Must(synth.Compile(spec))
	build := cliutil.Must(m.Builder())

	fmt.Println("== Phase 1: characterization (system side) ==")
	sess := cliutil.Must(m.Session(build, core.WithCharacterizeConfig(cliutil.CharConfig(*quick, m.UsePFS()))))
	cliutil.PrintTables(cliutil.Must(sess.Characterization()))

	declR, declW := spec.DeclaredBytes()
	fmt.Printf("== Phase 3: evaluating spec %s (%d ranks, %d phases, %s read / %s written declared) ==\n\n",
		app.Name(), spec.Procs, len(spec.Phases), stats.IBytes(declR), stats.IBytes(declW))
	cliutil.Check(m.Run(sess, app))
}

// emitSpec writes the spec the named application generator built.
func emitSpec(name string, app catalog.App, out string) error {
	if out == "" {
		return app.Spec().WriteJSON(os.Stdout)
	}
	if err := cliutil.WriteFileFn(out, app.Spec().WriteJSON); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s spec to %s\n", name, out)
	return nil
}
