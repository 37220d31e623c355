package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// conservationTolerance bounds the allowed difference between summed
// root-span wall time and summed trace I/O time: 1 ns (1e-9 s). The
// two are stamped on the same simulated clock reads, so any larger
// drift means a layer opened or closed a span outside its trace
// window — a bug, not rounding.
const conservationTolerance = sim.Duration(1)

// usedTieMargin is the relative band within which two used-% rows are
// considered tied. The used-% inference cannot separate levels whose
// characterized rates are bound by the same resource (an MPI-IO
// characterization on a network-bound cluster tracks the network-FS
// row within a fraction of a percent); inside the band the span
// verdict is the tie-breaker, not a contradiction.
const usedTieMargin = 0.98

// PathLevelSelf is one characterized level's span-measured self time.
type PathLevelSelf struct {
	Level  Level        `json:"-"`
	Name   string       `json:"level"`
	SelfNS sim.Duration `json:"self_ns"`
}

// PathReportFormat and PathReportVersion are the path report's
// versioned envelope when exported standalone. WriteJSON stamps them;
// a PathReport nested inside
// another document (a sweep cell) stays unstamped — the outer
// envelope covers it.
const (
	PathReportFormat  = "ioeval-path-report"
	PathReportVersion = 1
)

// PathReport is the span side of the evaluation verdict: where
// requests actually spent their time, aggregated from the per-request
// span trees, cross-checked against the used-% table's indirect
// inference and against the trace (the conservation invariant).
type PathReport struct {
	Format  string `json:"format,omitempty"`
	Version int    `json:"version,omitempty"`

	// Profile is the full 8-level × 3-class span aggregation.
	Profile telemetry.PathProfile `json:"profile"`

	// Self lists span-measured self time folded onto the paper's three
	// characterized levels, in path order (CharacterizedSelf).
	Self []PathLevelSelf `json:"self"`

	// Slowest is the span verdict: the characterized level with the
	// most self time. Valid only when HasSpans.
	Slowest     Level  `json:"-"`
	SlowestName string `json:"slowest_level"`
	HasSpans    bool   `json:"has_spans"`

	// UsedSlowest is the used-% verdict: the level whose used
	// percentage is highest (the level the application came closest to
	// saturating). Valid only when HasUsed.
	UsedSlowest     Level  `json:"-"`
	UsedSlowestName string `json:"used_slowest_level"`
	HasUsed         bool   `json:"has_used"`

	// Agree reports whether the two verdicts name the same level —
	// spans can falsify the used-% inference.
	Agree bool `json:"agree"`

	// Conservation invariant: TopBusy is summed root-span wall time of
	// data requests; TraceIO is summed trace I/O event time. Drift is
	// their difference; Conserved means |Drift| <= 1 ns.
	TopBusy   sim.Duration `json:"top_busy_ns"`
	TraceIO   sim.Duration `json:"trace_io_ns"`
	Drift     sim.Duration `json:"drift_ns"`
	Conserved bool         `json:"conserved"`
}

// PathReport builds the span-side verdict for this evaluation.
func (e *Evaluation) PathReport() PathReport {
	pr := PathReport{Profile: e.path}

	cs := e.path.CharacterizedSelf()
	var bestSelf sim.Duration = -1
	for _, l := range Levels() {
		self := cs[l.TelemetryLevel()]
		pr.Self = append(pr.Self, PathLevelSelf{Level: l, Name: l.String(), SelfNS: self})
		if self > bestSelf {
			pr.Slowest, bestSelf = l, self
		}
	}
	_, pr.HasSpans = e.path.SlowestLevel()
	pr.SlowestName = pr.Slowest.String()

	bestPct := -1.0
	levelPct := map[Level]float64{}
	for _, u := range e.used {
		if !u.CharAvailable {
			continue
		}
		if u.UsedPct > levelPct[u.Level] {
			levelPct[u.Level] = u.UsedPct
		}
		if u.UsedPct > bestPct {
			pr.UsedSlowest, bestPct = u.Level, u.UsedPct
			pr.HasUsed = true
		}
	}
	pr.UsedSlowestName = pr.UsedSlowest.String()
	// The verdicts agree when they name the same level, or when the
	// span-named level's used-% is tied (within usedTieMargin) with the
	// table maximum — the indirect inference cannot rank inside a tie,
	// the spans can.
	pr.Agree = pr.HasSpans && pr.HasUsed &&
		(pr.Slowest == pr.UsedSlowest || levelPct[pr.Slowest] >= usedTieMargin*bestPct)

	pr.TopBusy = e.path.TopBusy(telemetry.ClassRead, telemetry.ClassWrite)
	if e.trace != nil {
		for _, ev := range e.trace.Events() {
			if ev.Op.IsIO() {
				pr.TraceIO += sim.Duration(ev.T1 - ev.T0)
			}
		}
	}
	pr.Drift = pr.TopBusy - pr.TraceIO
	if pr.Drift < 0 {
		pr.Drift = -pr.Drift
	}
	pr.Conserved = pr.Drift <= conservationTolerance
	return pr
}

// WriteJSON writes the path report as indented JSON under the
// versioned envelope.
func (pr PathReport) WriteJSON(w io.Writer) error {
	pr.Format = PathReportFormat
	pr.Version = PathReportVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(pr); err != nil {
		return fmt.Errorf("core: encode path report: %w", err)
	}
	return nil
}

// FormatPathReport renders the span attribution and its cross-checks
// as a text table.
func FormatPathReport(pr PathReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Span attribution (per-request time in level)\n")
	fmt.Fprintf(&b, "%-12s %14s\n", "level", "self time")
	for _, s := range pr.Self {
		fmt.Fprintf(&b, "%-12s %14s\n", s.Name, s.SelfNS)
	}
	if pr.HasSpans {
		fmt.Fprintf(&b, "span verdict: slowest level = %s\n", pr.SlowestName)
	} else {
		fmt.Fprintf(&b, "span verdict: no data spans recorded\n")
	}
	if pr.HasUsed {
		agree := "DISAGREE"
		if pr.Agree {
			agree = "agree"
		}
		fmt.Fprintf(&b, "used-%% verdict: %s (%s)\n", pr.UsedSlowestName, agree)
	}
	status := "holds"
	if !pr.Conserved {
		status = "VIOLATED"
	}
	fmt.Fprintf(&b, "conservation: root spans %s vs trace I/O %s (drift %s, %s)\n",
		pr.TopBusy, pr.TraceIO, pr.Drift, status)
	if len(pr.Profile.Tags) > 0 {
		fmt.Fprintf(&b, "fault tags: %s\n", formatTags(pr.Profile.Tags))
	}
	return b.String()
}

// formatTags renders tag counts deterministically (sorted by name).
func formatTags(tags map[string]int64) string {
	names := make([]string, 0, len(tags))
	for n := range tags {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", n, tags[n]))
	}
	return strings.Join(parts, " ")
}
