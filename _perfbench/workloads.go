package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/experiments"
	"ioeval/internal/fault"
	"ioeval/internal/store"
	"ioeval/internal/telemetry"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
)

// defaultSeed is the seed the committed digests belong to; it is also
// the builtin disk-fail plan's own seed.
const defaultSeed = 1

// env is what one run of a workload shares across its iterations.
type env struct {
	state string  // the checkout's benchmark state directory
	seed  int64   // workload seed, forwarded to the fault plan
	tr    *tracer // nil when untraced
}

// build returns a fresh Aohyper RAID 5 cluster, the configuration
// every workload runs on.
func (e *env) build() *cluster.Cluster {
	defer e.tr.start("cluster.build")()
	return cluster.Aohyper(cluster.RAID5)
}

// storeDir is the characterization store the evaluations read.
func (e *env) storeDir() string { return filepath.Join(e.state, "store") }

// charConfig is the paper's Fig. 5 characterization of Aohyper: the
// parameters of experiments.charConfig (IOzone 32 KiB–16 MiB,
// sequential and random reads and writes on a 2×RAM file; IOR with 8
// processes, 256 KiB transfers, 1 MiB–1 GiB blocks of a 32 GiB file).
func charConfig() core.CharacterizeConfig {
	return core.CharacterizeConfig{
		FSBlockSizes:  bench.DefaultBlockSizes(),
		FSModes:       []bench.Mode{bench.SeqWrite, bench.SeqRead, bench.RandWrite, bench.RandRead},
		RandomOps:     2048,
		LibProcs:      8,
		LibBlockSizes: bench.DefaultIORBlockSizes(),
		LibTransfer:   256 << 10,
		LibFileSize:   32 << 30,
	}
}

// output is one timed iteration's result: a digest per part of the
// user-visible output, and the evaluation or characterization behind
// it for the traced run's per-layer numbers.
type output struct {
	digests map[string]string
	ev      *core.Evaluation
	ch      *core.Characterization
}

// workload is one benchmark input. setup is what a user pays before
// the timed phase and returns the session run then uses.
type workload struct {
	name  string
	seeds bool // whether the output depends on the seed
	setup func(e *env) (*core.Session, error)
	run   func(e *env, s *core.Session) (output, error)
}

var workloads = []workload{
	{name: "char-fig5", setup: setupCold, run: runCharacterization},
	{name: "eval-btio-full", setup: setupWarm(false), run: runEvaluation(false)},
	{name: "eval-madbench-faulted", seeds: true, setup: setupWarm(true), run: runEvaluation(true)},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupCold constructs the session of a cold characterization on one
// worker and analyzes the configuration of a fresh cluster, the step
// iomethod takes before characterizing. The constructor alone takes
// about a microsecond, too little to time steadily.
func setupCold(e *env) (*core.Session, error) {
	s := core.NewSession(e.build,
		core.WithCharacterizeConfig(charConfig()),
		core.WithCharacterizeWorkers(1))
	if core.AnalyzeConfiguration(e.build()) == "" {
		return nil, fmt.Errorf("empty configuration analysis")
	}
	return s, nil
}

func runCharacterization(e *env, s *core.Session) (output, error) {
	end := e.tr.start("core.characterize")
	ch, err := s.Characterization()
	end()
	if err != nil {
		return output{}, err
	}
	out := output{digests: map[string]string{}, ch: ch}
	for _, level := range core.Levels() {
		out.digests["table."+level.TelemetryLevel().String()] = digest([]byte(core.FormatPerfTable(ch.Table(level))))
	}
	return out, nil
}

// diskFail is the builtin disk-fail plan under the workload seed.
func diskFail(seed int64) (fault.Plan, error) {
	plan, err := fault.Builtin("disk-fail")
	if err != nil {
		return fault.Plan{}, err
	}
	plan.Seed = seed
	return plan, nil
}

// setupWarm opens the store with a fresh handle and resolves the
// characterization from it: fingerprint (which builds a probe
// cluster), entry read and decode. The store must already hold the
// entry (see prepare); a miss is an error, never a silent
// characterization.
func setupWarm(faulted bool) func(e *env) (*core.Session, error) {
	return func(e *env) (*core.Session, error) {
		defer e.tr.start("store.load")()
		st, err := store.Open(e.storeDir())
		if err != nil {
			return nil, err
		}
		opts := []core.SessionOption{core.WithCharacterizeConfig(charConfig()), core.WithStore(st)}
		if faulted {
			plan, err := diskFail(e.seed)
			if err != nil {
				return nil, err
			}
			opts = append(opts, core.WithFaultPlan(plan))
		}
		s := core.NewSession(e.build, append(opts, core.WithCharacterizeWorkers(1))...)
		if _, err := s.Characterization(); err != nil {
			return nil, err
		}
		if st.Stats().Misses != 0 {
			return nil, fmt.Errorf("characterization store %s is cold", st.Dir())
		}
		return s, nil
	}
}

// runEvaluation evaluates BT-IO class C full (healthy) or MADbench2
// (under disk-fail) and renders the reports a user reads.
func runEvaluation(faulted bool) func(e *env, s *core.Session) (output, error) {
	return func(e *env, s *core.Session) (output, error) {
		end := e.tr.start("core.evaluate")
		var ev *core.Evaluation
		var err error
		if faulted {
			ev, err = s.EvaluateScenario(experiments.MadBenchSpec(16, madbench.Shared).New())
		} else {
			ev, err = s.Evaluate(experiments.BTIOSpec(16, btio.Full).New())
		}
		end()
		if err != nil {
			return output{}, err
		}
		defer e.tr.start("core.report")()
		var tele, path bytes.Buffer
		if err := ev.TelemetryReport().WriteJSON(&tele); err != nil {
			return output{}, err
		}
		pr := ev.PathReport()
		if err := pr.WriteJSON(&path); err != nil {
			return output{}, err
		}
		ch, err := s.Characterization()
		if err != nil {
			return output{}, err
		}
		if !pr.HasSpans || !pr.Conserved {
			return output{}, fmt.Errorf("span conservation fails: drift %v (has spans %v)", pr.Drift, pr.HasSpans)
		}
		return output{
			digests: map[string]string{
				"evaluation": digest([]byte(core.FormatEvaluation(ev))),
				"telemetry":  digest(tele.Bytes()),
				"path":       digest(path.Bytes()),
			},
			ev: ev,
			ch: ch,
		}, nil
	}
}

// prepare fills the store with the evaluations' characterization. It
// runs in its own process before a measured one, so the measured
// process never characterizes and its peak RSS is the evaluation's.
func prepare(e *env) error {
	st, err := store.Open(e.storeDir())
	if err != nil {
		return err
	}
	s := core.NewSession(e.build, core.WithCharacterizeConfig(charConfig()),
		core.WithStore(st), core.WithCharacterizeWorkers(0))
	_, err = s.Characterization()
	return err
}

// workLevels are the I/O-path levels whose work the traced run counts.
var workLevels = []telemetry.Level{telemetry.LevelLibrary, telemetry.LevelGlobalFS,
	telemetry.LevelLocalFS, telemetry.LevelCache, telemetry.LevelBlock,
	telemetry.LevelDevice, telemetry.LevelNetwork}

// workCounts sums the ops and bytes of every component at each level
// of the evaluation, as work.<level>.ops and work.<level>.bytes. A
// characterization has no evaluation, so its counts are all zero.
func workCounts(ev *core.Evaluation) map[string]float64 {
	out := map[string]float64{}
	for _, l := range workLevels {
		out["work."+l.String()+".ops"] = 0
		out["work."+l.String()+".bytes"] = 0
	}
	if ev == nil {
		return out
	}
	for _, c := range ev.Components() {
		key := "work." + c.Level.String()
		if _, ok := out[key+".ops"]; ok {
			out[key+".ops"] += float64(c.Counters.TotalOps())
			out[key+".bytes"] += float64(c.Counters.TotalBytes())
		}
	}
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
