// Package cliutil is the shared wiring of the ioeval commands: one
// implementation of the common flags (-fault, -seed, -spans,
// -metrics, -store) and of the enum flags' value sets, the quick
// characterization preset, the mapping of their flags onto the
// workload catalogue (internal/catalog) and the -store epilogue
// (workload.go), the methodology driver (method.go), JSON-export
// helpers and the exit-code conventions, so the main.go files keep
// only their own flags and output.
//
// Exit codes: 1 for runtime failures (Fatal), 2 for usage errors
// (FatalUsage, BadValue, Parse) — matching the flag package's own
// behavior on bad flags.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"ioeval/internal/bench"
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

// BadValue reports an invalid flag value the way the flag package
// does, the error and then the usage, and exits with status 2.
func BadValue(err error) {
	fmt.Fprintln(os.Stderr, err)
	FatalUsage()
}

// Check exits through Fatal on a non-nil error.
func Check(err error) {
	if err != nil {
		Fatal(err)
	}
}

// Must returns v, or exits through Fatal on a non-nil error.
func Must[T any](v T, err error) T {
	Check(err)
	return v
}

// Valid returns v, or exits through BadValue on a non-nil error, such
// as a process count the workload it builds cannot run.
func Valid[T any](v T, err error) T {
	if err != nil {
		BadValue(err)
	}
	return v
}

// Value sets of the commands' enum flags; platforms, organizations
// and workloads are the catalogue's (catalog.Platforms, catalog.Orgs,
// catalog.Workloads).
var (
	Apps      = []string{"btio", "madbench", "flashio"}       // iomethod -app; tracetool -capture takes the first two
	Subtypes  = []string{"full", "simple"}                    // BT-IO
	FileTypes = []string{"unique", "shared"}                  // MADbench2
	Classes   = []string{"A", "B", "C"}                       // NPB
	Targets   = []string{"local", "nfs"}                      // iozone
	Modes     = []string{"seq", "rand", "stride"}             // iozone
	Ranks     = []string{"io-time", "used-pct", "throughput"} // iosweep
)

// checks are the value checks registered on each flag set, run by
// Parse in registration order.
var checks = map[*flag.FlagSet][]func() error{}

// EnumFlag registers a string flag that takes its default or one of
// values; Parse rejects anything else. It stays a plain string flag,
// so -h prints it like any other.
func EnumFlag(fs *flag.FlagSet, name, def, usage string, values ...string) *string {
	p := fs.String(name, def, usage)
	checks[fs] = append(checks[fs], func() error {
		if *p == def {
			return nil
		}
		return checkValues(name, []string{*p}, values)
	})
	return p
}

// EnumListFlag registers a comma-separated list flag whose every
// element must be one of values.
func EnumListFlag(fs *flag.FlagSet, name, def, usage string, values ...string) *string {
	p := fs.String(name, def, usage)
	checks[fs] = append(checks[fs], func() error { return checkValues(name, SplitList(*p), values) })
	return p
}

// checkValues returns an error naming the valid values for the first
// of vals outside them.
func checkValues(name string, vals, values []string) error {
	for _, v := range vals {
		if !slices.Contains(values, v) {
			return fmt.Errorf("invalid value %q for flag -%s: want %s", v, name, oneOf(values))
		}
	}
	return nil
}

// check returns the first error of fs's registered value checks.
func check(fs *flag.FlagSet) error {
	for _, c := range checks[fs] {
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

// Parse parses the command line and runs every registered value check
// (enum flags, -pfs), so an invalid value exits with status 2 before
// the command does any work.
func Parse() {
	flag.Parse()
	if err := check(flag.CommandLine); err != nil {
		BadValue(err)
	}
}

// oneOf renders a value set as "a, b or c".
func oneOf(values []string) string {
	if len(values) < 2 {
		return strings.Join(values, "")
	}
	return strings.Join(values[:len(values)-1], ", ") + " or " + values[len(values)-1]
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
	names := fault.BuiltinNames()
	return EnumFlag(fs, "fault", "", "also evaluate under a fault scenario: "+strings.Join(names, ", "), names...)
}

// FaultListFlag registers -fault as a comma-separated scenario axis
// ("none" stands for the healthy run).
func FaultListFlag(fs *flag.FlagSet) *string {
	names := append([]string{"none"}, fault.BuiltinNames()...)
	return EnumListFlag(fs, "fault", "", "comma-separated fault scenarios to sweep (none = healthy run): "+strings.Join(names, ", "), names...)
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

// Size units for SizeFlag, as the log2 of their byte count.
const (
	KiB uint = 10
	MiB uint = 20
)

// Size is an int64 flag typed in KiB or MiB and read in bytes, so a
// command converts its size flags once, where it declares them.
type Size struct {
	n    int64 // as typed, in the flag's unit
	unit uint  // KiB or MiB
}

// SizeFlag registers a size flag whose default and command-line value
// are in unit. A back-quoted unit in usage names the value in -h.
func SizeFlag(fs *flag.FlagSet, name string, def int64, unit uint, usage string) *Size {
	s := &Size{n: def, unit: unit}
	fs.Var(s, name, usage)
	return s
}

// Bytes returns the flag's value in bytes.
func (s *Size) Bytes() int64 { return s.n << s.unit }

// String prints the value in the flag's unit.
func (s *Size) String() string { return strconv.FormatInt(s.n, 10) }

// Set parses v with flag.Int64's syntax and errors, and rejects a
// value whose byte count does not fit in an int64.
func (s *Size) Set(v string) error {
	n, err := strconv.ParseInt(v, 0, 64)
	switch {
	case errors.Is(err, strconv.ErrRange), n > math.MaxInt64>>s.unit, n < math.MinInt64>>s.unit:
		return errors.New("value out of range")
	case err != nil:
		return errors.New("parse error")
	}
	s.n = n
	return nil
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

// WriteMetrics writes the telemetry report to path. With a store in
// use, the store's snapshot (hits, misses, writes, quarantined
// entries) joins the report's components.
func WriteMetrics(path string, rep *telemetry.Report, st *store.Store) error {
	if st != nil {
		rep.Components = append(rep.Components, st.Snapshot())
	}
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
