// Command iomethod runs the paper's full three-phase methodology on a
// simulated cluster: characterize the I/O system at every level of
// the I/O path, analyze the configuration's factors, run an
// application under the tracer and report the used-percentage tables.
//
// Usage:
//
//	iomethod [-platform aohyper|clusterA] [-org jbod|raid1|raid5]
//	         [-app btio|madbench|flashio] [-procs N] [-subtype full|simple]
//	         [-filetype unique|shared] [-quick] [-fault scenario] [-seed N]
//	         [-spans] [-store DIR]
//
// With -fault, the application is evaluated twice — healthy and under
// the named fault scenario — and the used-% tables are reported side
// by side. With -store, the characterization is looked up in (and
// persisted to) the content-addressed store, so repeated runs against
// the same configuration skip phase 1 entirely.
package main

import (
	"flag"
	"fmt"
	"os"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/catalog"
	"ioeval/internal/core"
)

func main() {
	m := cliutil.MethodFlags(flag.CommandLine)
	appName := cliutil.EnumFlag(flag.CommandLine, "app", "btio", "application: btio, madbench or flashio", cliutil.Apps...)
	procs := flag.Int("procs", 16, "MPI processes (must be a square)")
	subtype := cliutil.EnumFlag(flag.CommandLine, "subtype", "full", "BT-IO subtype: full or simple", cliutil.Subtypes...)
	filetype := cliutil.EnumFlag(flag.CommandLine, "filetype", "shared", "MADbench2 filetype: unique or shared", cliutil.FileTypes...)
	quick := flag.Bool("quick", false, "reduced characterization and class A BT-IO (fast demo)")
	saveChar := flag.String("save-char", "", "write the characterization to this JSON file")
	loadChar := flag.String("load-char", "", "reuse a characterization from this JSON file (skips phase 1 system side)")
	cliutil.Parse()

	app := cliutil.Valid(catalog.Workload(cliutil.WorkloadName(*appName, *subtype, *filetype), *procs, *quick))
	build := cliutil.Must(m.Builder())
	fmt.Println("== Phase 2 preview: I/O configuration analysis ==")
	fmt.Println(core.AnalyzeConfiguration(build()))

	fmt.Println("== Phase 1: characterization (system side) ==")
	source := core.WithCharacterizeConfig(cliutil.CharConfig(*quick, m.UsePFS()))
	if *loadChar != "" {
		f := cliutil.Must(os.Open(*loadChar))
		ch, err := core.ReadCharacterizationJSON(f)
		_ = f.Close() // read-only; a close error cannot lose data
		cliutil.Check(err)
		fmt.Printf("(loaded characterization of %s from %s)\n", ch.Config, *loadChar)
		source = core.WithCharacterization(ch)
	}
	sess := cliutil.Must(m.Session(build, source))
	ch := cliutil.Must(sess.Characterization())
	if *saveChar != "" {
		cliutil.Check(cliutil.WriteFileFn(*saveChar, ch.WriteJSON))
		fmt.Printf("(characterization saved to %s)\n", *saveChar)
	}
	cliutil.PrintTables(ch)

	fmt.Printf("== Phase 1: characterization (application side) + Phase 3: evaluation ==\n")
	fmt.Printf("running %s ...\n\n", app.Name())
	cliutil.Check(m.Run(sess, app))
}
