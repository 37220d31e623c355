// Command tracetool captures and analyzes application I/O traces —
// the workflow of the paper's PAS2P tracing extension. It can run a
// workload on a simulated cluster and dump the trace as JSON lines,
// or load a previously captured trace and report the application
// characterization, the detected phases with weights (the signature)
// and the Jumpshot-style timeline.
//
// Capture:
//
//	tracetool -capture btio -procs 16 -out btio.trace
//	tracetool -capture madbench -procs 16 -out mad.trace
//
// Analyze:
//
//	tracetool -in btio.trace -profile -signature -timeline
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ioeval/cmd/internal/cliutil"
	"ioeval/internal/catalog"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/stats"
	"ioeval/internal/trace"
)

func main() {
	capture := cliutil.EnumFlag(flag.CommandLine, "capture", "", "workload to capture: btio or madbench (empty = analyze)", cliutil.Apps[:2]...)
	procs := flag.Int("procs", 16, "processes for capture")
	subtype := cliutil.EnumFlag(flag.CommandLine, "subtype", "full", "BT-IO subtype for capture", cliutil.Subtypes...)
	out := flag.String("out", "", "output trace file for capture")
	in := flag.String("in", "", "input trace file for analysis")
	profile := flag.Bool("profile", true, "print the application characterization")
	signature := flag.Bool("signature", false, "print the phase signature per rank 0")
	timeline := flag.Bool("timeline", false, "print the timeline")
	csvOut := flag.String("csv", "", "export raw events as CSV to this file")
	phasesCSV := flag.String("phases-csv", "", "export detected phases as CSV to this file")
	inferOut := flag.String("infer-spec", "", "infer a synthetic-workload spec (runnable via iosynth) from the trace and write it to this JSON file")
	quick := flag.Bool("quick", true, "reduced problem sizes for capture")
	cliutil.Parse()

	switch {
	case *capture != "":
		app := cliutil.Valid(catalog.Workload(cliutil.WorkloadName(*capture, *subtype, "shared"), *procs, *quick))
		if *out == "" {
			cliutil.Fatal(fmt.Errorf("-capture needs -out"))
		}
		tr := trace.New()
		fmt.Fprintf(os.Stderr, "capturing %s ...\n", app.Name())
		_, err := app.Run(cluster.Aohyper(cluster.RAID5), tr)
		cliutil.Check(err)
		cliutil.Check(cliutil.WriteFileFn(*out, tr.WriteJSON))
		fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", len(tr.Events()), *out)

	case *in != "":
		f := cliutil.Must(os.Open(*in))
		defer f.Close()
		tr := cliutil.Must(trace.ReadJSON(f))
		if *profile {
			fmt.Println(core.FormatProfile(*in, tr.Profile()))
		}
		if *signature {
			fmt.Println("Signature (rank 0):")
			for _, s := range tr.Signature(0) {
				fmt.Printf("  %-5s %-10s ops=%-8d bytes=%-10s rate=%-12s weight=%d\n",
					s.Phase.Kind, s.Phase.Mode, s.Phase.Ops,
					stats.IBytes(s.Phase.Bytes), stats.MBs(s.Phase.TransferRate()), s.Weight)
			}
			fmt.Println()
		}
		if *timeline {
			fmt.Println(trace.Timeline{Width: 110}.Render(tr.Events()))
		}
		if *csvOut != "" {
			cliutil.Check(cliutil.WriteFileFn(*csvOut, tr.WriteCSV))
		}
		if *phasesCSV != "" {
			ranks := tr.Profile().NumProcs
			cliutil.Check(cliutil.WriteFileFn(*phasesCSV, func(w io.Writer) error { return tr.PhaseCSV(w, ranks) }))
		}
		if *inferOut != "" {
			spec := cliutil.Must(trace.InferSpec(tr, *in))
			cliutil.Check(cliutil.WriteFileFn(*inferOut, spec.WriteJSON))
			fmt.Fprintf(os.Stderr, "inferred %d-phase spec for %d ranks to %s\n",
				len(spec.Phases), spec.Procs, *inferOut)
		}

	default:
		cliutil.FatalUsage()
	}
}
