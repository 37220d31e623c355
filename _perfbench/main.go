// Command perfbench is ioeval's benchmark. It runs one workload
// through the public methodology API (cluster → core.Session → store →
// Characterization / Evaluate / EvaluateScenario), checks every
// iteration's user-visible output against the committed digests, and
// prints the end-to-end metrics; with -trace 1 it prints the
// per-layer metrics instead. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage (normally through run.py, which builds it):
//
//	perfbench -workload NAME -seed N -seconds S -trace 0|1 [-state DIR]
//	perfbench -prepare -state DIR
//	perfbench -record-digests FILE -workload NAME
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"ioeval/internal/core"
)

//go:embed digests.json
var digestsJSON []byte

func main() {
	name := flag.String("workload", "", "workload: char-fig5, eval-btio-full or eval-madbench-faulted")
	seed := flag.Int64("seed", defaultSeed, "workload seed, forwarded to the fault plan")
	seconds := flag.Float64("seconds", 10, "measure timed iterations for this long (at least one)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	state := flag.String("state", ".bench_build", "state directory (characterization store, span dumps)")
	prep := flag.Bool("prepare", false, "fill the characterization store the evaluations read, then exit")
	record := flag.String("record-digests", "", "run the workload once at the default seed and write its digests into this file")
	flag.Parse()

	e := &env{state: *state, seed: *seed}
	if *prep {
		if err := prepare(e); err != nil {
			fatal(err)
		}
		return
	}
	// Measure on one P. On a shared 2-vCPU host, wall time at the
	// default GOMAXPROCS also measured whether another tenant held the
	// second vCPU, where the GC ran when it was free. The simulation is
	// single-threaded either way.
	runtime.GOMAXPROCS(1)
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *record != "" {
		if err := recordDigests(w, e, *record); err != nil {
			fatal(err)
		}
		return
	}
	want, err := loadDigests(w)
	if err != nil {
		fatal(err)
	}
	var res result
	if *trace == 1 {
		res, err = traced(w, e, want)
	} else {
		res, err = measured(w, e, want, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	res.Correct = res.Failed == 0
	raw, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(raw))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check compares an iteration's output with the committed digests.
// Workloads whose output depends on the seed are held to the digests
// only at the default seed; at any other seed the conservation check
// run already made is the check.
func check(w workload, e *env, want map[string]string, out output) error {
	if w.seeds && e.seed != defaultSeed {
		return nil
	}
	if len(out.digests) != len(want) {
		return fmt.Errorf("%s: %d output parts, %d committed digests", w.name, len(out.digests), len(want))
	}
	for part, got := range out.digests {
		if want[part] != got {
			return fmt.Errorf("%s: output %q digest %.12s, committed %.12s", w.name, part, got, want[part])
		}
	}
	return nil
}

// sample is one timed iteration's cost.
type sample struct{ wall, cpu, allocMB, allocsM, rssMB float64 }

// timeRun runs one iteration on a freshly collected heap whose free
// pages went back to the OS, and measures its wall time, process CPU
// time, allocation and peak resident set.
func timeRun(w workload, e *env, s *core.Session) (sample, output, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return sample{}, output{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	out, err := w.run(e, s)
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	rss, rerr := peakRSSMiB()
	if err == nil {
		err = rerr
	}
	return sample{
		wall:    wall,
		cpu:     c1 - c0,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		allocsM: float64(m1.Mallocs-m0.Mallocs) / 1e6,
		rssMB:   rss,
	}, out, err
}

// Before each timed iteration a measured run times a batch of
// set-ups and runs the iteration on the last one. A batch is
// setupParts parts of at least setupReps set-ups and setupPart
// seconds each; its time is the median of the parts' means. A part's
// mean carries its share of the garbage collection the set-ups cause:
// single set-ups of tens of microseconds fall either side of a
// collection, and their median jumped by 40% between runs.
const (
	setupParts = 5
	setupReps  = 4
	setupPart  = 0.02 // seconds
)

// setupBatchRun times one batch of set-ups and returns its time and
// the last session.
func setupBatchRun(w workload, e *env) (float64, *core.Session, error) {
	var s *core.Session
	means := make([]float64, setupParts)
	for i := range means {
		start := time.Now()
		n := 0
		for ; n < setupReps || time.Since(start).Seconds() < setupPart; n++ {
			var err error
			if s, err = w.setup(e); err != nil {
				return 0, nil, err
			}
		}
		means[i] = time.Since(start).Seconds() / float64(n)
	}
	return median(means), s, nil
}

// measured is the untraced run: batches of set-ups and timed
// iterations until one more iteration would overrun the time budget.
// Times are calibrated (calib.go): an iteration's wall and CPU time
// are scaled by refNominal over the mean of the reference's times
// measured just before its set-up batch and just after it, the batch's
// set-up time by refNominal over the time just before.
func measured(w workload, e *env, want map[string]string, seconds float64) (result, error) {
	res := result{Metrics: map[string]metric{}}
	// One untimed batch and reference first, so process start-up (heap
	// growth, first page faults) lands in neither the first set-ups nor
	// the first calibration.
	if _, _, err := setupBatchRun(w, e); err != nil {
		return res, err
	}
	reference()
	var setups []float64
	var samples []sample
	start := time.Now()
	for {
		iterStart := time.Now()
		before := reference()
		setup, s, err := setupBatchRun(w, e)
		if err != nil {
			return res, err
		}
		setups = append(setups, setup*refNominal/before)
		sm, out, err := timeRun(w, e, s)
		scale := refNominal / ((before + reference()) / 2)
		hostWall := sm.wall
		sm.wall *= scale
		sm.cpu *= scale
		res.Attempted++
		if err == nil {
			err = check(w, e, want, out)
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d: %v\n", res.Attempted, err)
		}
		samples = append(samples, sm)
		fmt.Printf("iteration %d: wall %.3f s, cpu %.3f s, peak rss %.1f MiB, host wall %.3f s\n",
			len(samples), sm.wall, sm.cpu, sm.rssMB, hostWall)
		if time.Since(start).Seconds()+time.Since(iterStart).Seconds() > seconds {
			break
		}
	}

	pick := func(f func(sample) float64) float64 {
		vals := make([]float64, len(samples))
		for i, sm := range samples {
			vals[i] = f(sm)
		}
		return median(vals)
	}
	res.Metrics["wall_s"] = metric{pick(func(s sample) float64 { return s.wall }), "s"}
	res.Metrics["cpu_s"] = metric{pick(func(s sample) float64 { return s.cpu }), "s"}
	res.Metrics["alloc_mb"] = metric{pick(func(s sample) float64 { return s.allocMB }), "MiB"}
	res.Metrics["allocs_m"] = metric{pick(func(s sample) float64 { return s.allocsM }), "1e6"}
	res.Metrics["peak_rss_mb"] = metric{pick(func(s sample) float64 { return s.rssMB }), "MiB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	fmt.Printf("%s: %d iterations, wall %.3f s (median)\n", w.name, len(samples), res.Metrics["wall_s"].Value)
	return res, nil
}

// traced is the per-layer run: the workload once untraced and once
// traced (the difference is the tracing overhead), the span self
// times, the evaluation's work counts, and every layer probe.
func traced(w workload, e *env, want map[string]string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	once := func(e *env) (sample, output, error) {
		s, err := w.setup(e)
		if err != nil {
			return sample{}, output{}, err
		}
		sm, out, err := timeRun(w, e, s)
		if err != nil {
			return sm, out, err
		}
		res.Attempted++
		if err := check(w, e, want, out); err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
		return sm, out, nil
	}
	plain, _, err := once(e)
	if err != nil {
		return res, err
	}
	te := *e
	te.tr = newTracer(1)
	withSpans, out, err := once(&te)
	if err != nil {
		return res, err
	}
	res.Metrics["trace_overhead_s"] = metric{withSpans.wall - plain.wall, "s"}
	self := te.tr.selfTimes()
	for name, v := range self {
		res.Metrics["span."+name+".self_s"] = metric{v, "s"}
	}
	fmt.Print(formatSelf(self))
	dump := filepath.Join(e.state, "spans", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := te.tr.write(dump); err != nil {
		return res, err
	}
	fmt.Printf("spans written to %s\n", dump)

	for name, v := range workCounts(out.ev) {
		res.Metrics[name] = metric{v, "count"}
	}

	res.Attempted++
	if err := checkNullLayers(); err != nil {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	for _, pr := range probes(e, out.ch) {
		r, err := runProbe(pr)
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(os.Stderr, "perfbench: probe %s: %v\n", pr.name, err)
		}
		res.Metrics[pr.name+".ns_op"] = metric{r.nsOp, "ns"}
		res.Metrics[pr.name+".allocs_op"] = metric{r.allocsOp, "allocs"}
		fmt.Printf("probe %-28s %12.1f ns/op %10.2f allocs/op\n", pr.name, r.nsOp, r.allocsOp)
	}
	return res, nil
}

// loadDigests returns the committed digests of the workload.
func loadDigests(w workload) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	want, ok := all[w.name]
	if !ok {
		return nil, fmt.Errorf("digests.json has no digests for %s", w.name)
	}
	return want, nil
}

// recordDigests runs the workload once at the default seed and stores
// its digests in path, keeping the other workloads' entries.
func recordDigests(w workload, e *env, path string) error {
	e.seed = defaultSeed
	all := map[string]map[string]string{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	s, err := w.setup(e)
	if err != nil {
		return err
	}
	out, err := w.run(e, s)
	if err != nil {
		return err
	}
	all[w.name] = out.digests
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM)
// from the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's peak resident set (VmHWM) since the last
// reset.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
