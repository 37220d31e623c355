// Package cliutil is the shared wiring of the ioeval commands: one
// implementation of the common flags (-fault, -seed, -spans,
// -metrics, -store), the platform/organization parsers, the quick
// characterization preset, JSON-export helpers and the exit-code
// conventions, so the ten main.go files cannot drift apart.
//
// Exit codes: 1 for runtime failures (Fatal), 2 for usage errors
// (FatalUsage) — matching the flag package's own behavior on bad
// flags.
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/fault"
	"ioeval/internal/store"
	"ioeval/internal/telemetry"
)

// Fatal prints the error prefixed with the command's name and exits
// with status 1 (runtime failure).
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}

// FatalUsage prints the flag usage and exits with status 2 (usage
// error).
func FatalUsage() {
	flag.Usage()
	os.Exit(2)
}

// SplitList splits a comma-separated flag value, trimming whitespace
// and dropping empty fields.
func SplitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// ParseOrg parses a device-organization name.
func ParseOrg(s string) (cluster.Organization, error) {
	switch s {
	case "jbod":
		return cluster.JBOD, nil
	case "raid1":
		return cluster.RAID1, nil
	case "raid5":
		return cluster.RAID5, nil
	}
	return 0, fmt.Errorf("unknown organization %q", s)
}

// PlatformConfig returns the named base platform's configuration.
func PlatformConfig(name string) (cluster.Config, error) {
	switch name {
	case "aohyper":
		return cluster.Aohyper(cluster.JBOD).Cfg, nil
	case "clusterA":
		return cluster.ClusterA().Cfg, nil
	}
	return cluster.Config{}, fmt.Errorf("unknown platform %q", name)
}

// ClusterBuilder returns a fresh-cluster builder for the named
// platform: org applies to Aohyper (clusterA has a fixed
// organization), pfsNodes > 0 additionally deploys the parallel FS.
func ClusterBuilder(platform string, org cluster.Organization, pfsNodes int) (func() *cluster.Cluster, error) {
	var cfg cluster.Config
	switch platform {
	case "clusterA":
		cfg = cluster.ClusterA().Cfg
	case "aohyper":
		cfg = cluster.Aohyper(org).Cfg
	default:
		return nil, fmt.Errorf("unknown platform %q", platform)
	}
	cfg.PFSIONodes = pfsNodes
	return func() *cluster.Cluster { return cluster.New(cfg) }, nil
}

// CharConfig returns the characterization parameters the evaluation
// commands share: the paper's defaults, or the reduced quick preset
// (small files, two modes, fewer library points) for fast demos.
func CharConfig(quick, usePFS bool) core.CharacterizeConfig {
	cfg := core.DefaultCharacterizeConfig()
	cfg.UsePFS = usePFS
	if quick {
		cfg.FSBlockSizes = []int64{64 << 10, 1 << 20, 4 << 20}
		cfg.FSModes = []bench.Mode{bench.SeqWrite, bench.SeqRead}
		cfg.LocalFileSize = 512 << 20
		cfg.GlobalFileSize = 512 << 20
		cfg.LibBlockSizes = []int64{4 << 20, 32 << 20}
		cfg.LibFileSize = 256 << 20
		cfg.LibProcs = 4
	}
	return cfg
}

// Flag registration: each helper registers one shared flag with the
// canonical name and help text.

// FaultFlag registers -fault (a single builtin scenario name).
func FaultFlag(fs *flag.FlagSet) *string {
	return fs.String("fault", "", "also evaluate under a fault scenario: "+strings.Join(fault.BuiltinNames(), ", "))
}

// FaultListFlag registers -fault as a comma-separated scenario axis
// ("none" stands for the healthy run).
func FaultListFlag(fs *flag.FlagSet) *string {
	return fs.String("fault", "", "comma-separated fault scenarios to sweep (none = healthy run): none, "+strings.Join(fault.BuiltinNames(), ", "))
}

// SeedFlag registers -seed (fault-plan seed override).
func SeedFlag(fs *flag.FlagSet) *int64 {
	return fs.Int64("seed", 0, "override the fault plan's seed (0 keeps the plan's own)")
}

// SpansFlag registers -spans.
func SpansFlag(fs *flag.FlagSet) *bool {
	return fs.Bool("spans", false, "print the span-based path report (per-level time attribution cross-checked against the used-% verdict)")
}

// MetricsFlag registers -metrics.
func MetricsFlag(fs *flag.FlagSet) *string {
	return fs.String("metrics", "", "write the telemetry report (per-level rates, per-phase component snapshots) to this JSON file")
}

// StoreFlag registers -store.
func StoreFlag(fs *flag.FlagSet) *string {
	return fs.String("store", "", "characterization store directory: look up tables by content fingerprint before characterizing, write them back on a miss")
}

// CharWorkersFlag registers -char-workers. The default parallelizes
// across all CPUs: characterization results are byte-identical at any
// worker count, so there is no reason for a CLI to idle.
func CharWorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("char-workers", 0, "concurrent characterization measurement units (0 = all CPUs, 1 = sequential); results are byte-identical at any count")
}

// FaultPlan resolves a builtin scenario name, applying the -seed
// override when non-zero. An empty name returns (nil, nil).
func FaultPlan(name string, seed int64) (*fault.Plan, error) {
	if name == "" {
		return nil, nil
	}
	plan, err := fault.Builtin(name)
	if err != nil {
		return nil, err
	}
	if seed != 0 {
		plan.Seed = seed
	}
	return &plan, nil
}

// OpenStore opens the characterization store at dir; an empty dir
// returns (nil, nil) — no store.
func OpenStore(dir string) (*store.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return store.Open(dir)
}

// StoreSummary renders the store's counters as the one-line epilogue
// the commands print after a run.
func StoreSummary(st *store.Store) string {
	s := st.Stats()
	return fmt.Sprintf("store %s: %d hits, %d misses, %d writes, %d quarantined",
		st.Dir(), s.Hits, s.Misses, s.Puts, s.Quarantined)
}

// AddStoreSnapshot appends the store's telemetry probe to the
// report's component snapshots, so store behavior (hits, misses,
// writes, quarantined entries) is visible in the exported
// TelemetryReport.
func AddStoreSnapshot(rep *telemetry.Report, st *store.Store) {
	if rep == nil || st == nil {
		return
	}
	rep.Components = append(rep.Components, st.Snapshot())
}

// WriteMetrics writes the telemetry report to path, folding in the
// store's snapshot when a store is in use.
func WriteMetrics(path string, rep *telemetry.Report, st *store.Store) error {
	AddStoreSnapshot(rep, st)
	return rep.WriteFile(path)
}

// WriteFileFn creates path and streams fn into it, closing cleanly
// (the write error takes precedence over the close error).
func WriteFileFn(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		_ = f.Close() // the write error takes precedence
		return err
	}
	return f.Close()
}
