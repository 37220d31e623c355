package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ioeval/internal/core"
	"ioeval/internal/sim"
	"ioeval/internal/stats"
	"ioeval/internal/telemetry"
)

// Metric selects the ranking order of a sweep report.
type Metric int

// Ranking metrics. I/O time ranks ascending (fastest configuration
// first); used-% and transfer rate rank descending (the configuration
// the application exploits hardest / moves the most bytes through
// first). Ties break on config name, then app name, so reports are
// deterministic.
const (
	ByIOTime Metric = iota
	ByUsedPct
	ByThroughput
)

func (m Metric) String() string {
	switch m {
	case ByIOTime:
		return "io-time"
	case ByUsedPct:
		return "used-pct"
	case ByThroughput:
		return "throughput"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// ParseMetric parses a ranking-metric name as printed by String.
func ParseMetric(s string) (Metric, error) {
	for _, m := range []Metric{ByIOTime, ByUsedPct, ByThroughput} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown ranking metric %q", s)
}

// LevelSummary aggregates one telemetry level's component snapshots
// over a cell's run: how many components sit on the level and the
// ops, bytes and busy time they accumulated.
type LevelSummary struct {
	Level      telemetry.Level `json:"level"`
	Components int             `json:"components"`
	Ops        int64           `json:"ops"`
	Bytes      int64           `json:"bytes"`
	Busy       sim.Duration    `json:"busy_ns"`
}

// Cell is one evaluated (configuration, workload) pair of a sweep.
type Cell struct {
	Config string `json:"config"`
	App    string `json:"app"`
	// Scenario names the fault plan the cell ran under ("" = healthy).
	Scenario string `json:"scenario,omitempty"`

	ExecTime   sim.Duration `json:"exec_time_ns"`
	IOTime     sim.Duration `json:"io_time_ns"`
	IOPct      float64      `json:"io_pct"` // I/O time as % of execution
	Throughput float64      `json:"throughput_bps"`
	UsedPct    float64      `json:"used_pct"` // max used-% over characterized levels

	// Levels carries the per-level measured-vs-characterized rows the
	// evaluation produced (the Fig. 10 used-% inputs).
	Levels []telemetry.LevelRate `json:"levels,omitempty"`
	// Path is the cell's span-side report: per-request time-in-level
	// attribution, the slowest-level verdict and its agreement with the
	// used-% inference, and the conservation check.
	Path *core.PathReport `json:"path,omitempty"`
	// Telemetry summarizes the cell's per-component registry snapshots
	// by I/O-path level.
	Telemetry []LevelSummary `json:"telemetry,omitempty"`

	// Eval is the full evaluation behind the cell (omitted from JSON;
	// the summary fields above are the exported view).
	Eval *core.Evaluation `json:"-"`
}

func newCell(config, app string, ev *core.Evaluation) *Cell {
	res := ev.Result()
	c := &Cell{
		Config:     config,
		App:        app,
		Scenario:   ev.Scenario(),
		ExecTime:   res.ExecTime,
		IOTime:     res.IOTime,
		Throughput: res.Throughput(),
		Eval:       ev,
	}
	if res.ExecTime > 0 {
		c.IOPct = 100 * float64(res.IOTime) / float64(res.ExecTime)
	}
	for _, u := range ev.Used() {
		if !u.CharAvailable {
			continue
		}
		if u.UsedPct > c.UsedPct {
			c.UsedPct = u.UsedPct
		}
	}
	c.Levels = ev.TelemetryReport().Levels
	pr := ev.PathReport()
	c.Path = &pr
	c.Telemetry = summarizeByLevel(ev.Components())
	return c
}

// summarizeByLevel folds component snapshots into per-level totals,
// in fixed level order so output is deterministic.
func summarizeByLevel(snaps []telemetry.Snapshot) []LevelSummary {
	if len(snaps) == 0 {
		return nil
	}
	byLevel := telemetry.ByLevel(snaps)
	var out []LevelSummary
	for _, level := range []telemetry.Level{
		telemetry.LevelLibrary, telemetry.LevelGlobalFS, telemetry.LevelLocalFS,
		telemetry.LevelCache, telemetry.LevelBlock, telemetry.LevelDevice,
		telemetry.LevelNetwork, telemetry.LevelFault, telemetry.LevelStore,
	} {
		group := byLevel[level]
		if len(group) == 0 {
			continue
		}
		s := LevelSummary{Level: level, Components: len(group)}
		for _, snap := range group {
			s.Ops += snap.Counters.TotalOps()
			s.Bytes += snap.Counters.TotalBytes()
			s.Busy += snap.Counters.TotalBusy()
		}
		out = append(out, s)
	}
	return out
}

// BestPick is the recommended configuration for one application.
type BestPick struct {
	App    string `json:"app"`
	Config string `json:"config"`
}

// ReportFormat and ReportVersion are the sweep report's versioned
// envelope, stamped by WriteJSON.
const (
	ReportFormat  = "ioeval-sweep-report"
	ReportVersion = 1
)

// Report is the deterministic, ranked outcome of one sweep.
type Report struct {
	Format   string     `json:"format,omitempty"`
	Version  int        `json:"version,omitempty"`
	Configs  []string   `json:"configs"` // grid order
	Apps     []string   `json:"apps"`    // grid order
	RankedBy string     `json:"ranked_by"`
	Cells    []*Cell    `json:"cells"` // ranked best-first
	Best     []BestPick `json:"best"`  // per app, app-name order
}

func newReport(grid Grid, rank Metric, cells []*Cell) *Report {
	r := &Report{RankedBy: rank.String(), Cells: cells}
	for _, cfg := range grid.Configs {
		r.Configs = append(r.Configs, cfg.Name)
	}
	for _, app := range grid.Apps {
		r.Apps = append(r.Apps, app.Name)
	}
	sort.SliceStable(r.Cells, func(i, j int) bool { return cellLess(rank, r.Cells[i], r.Cells[j]) })

	bestByApp := map[string]string{}
	for _, c := range r.Cells { // ranked order: first hit per app wins
		if _, ok := bestByApp[c.App]; !ok {
			bestByApp[c.App] = c.Config
		}
	}
	// Emit per-app picks by iterating the grid's app list sorted —
	// never the map — so Best ordering is deterministic by
	// construction, not by a post-hoc sort of map keys.
	apps := append([]string(nil), r.Apps...)
	sort.Strings(apps)
	for _, app := range apps {
		if len(r.Best) > 0 && r.Best[len(r.Best)-1].App == app {
			continue // duplicate app name in the grid
		}
		if cfg, ok := bestByApp[app]; ok {
			r.Best = append(r.Best, BestPick{App: app, Config: cfg})
		}
	}
	return r
}

func cellLess(rank Metric, a, b *Cell) bool {
	switch rank {
	case ByUsedPct:
		if a.UsedPct != b.UsedPct {
			return a.UsedPct > b.UsedPct
		}
	case ByThroughput:
		if a.Throughput != b.Throughput {
			return a.Throughput > b.Throughput
		}
	default:
		if a.IOTime != b.IOTime {
			return a.IOTime < b.IOTime
		}
	}
	if a.Config != b.Config {
		return a.Config < b.Config
	}
	return a.App < b.App
}

// String renders the ranked report as a table plus the per-application
// recommendation.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep report — %d configurations × %d workloads, ranked by %s\n",
		len(r.Configs), len(r.Apps), r.RankedBy)
	var tb stats.Table
	tb.AddRow("rank", "config", "app", "exec time", "I/O time", "I/O %", "throughput", "used%")
	for i, c := range r.Cells {
		tb.AddRow(fmt.Sprint(i+1), c.Config, c.App,
			fmt.Sprintf("%.2f s", c.ExecTime.Seconds()),
			fmt.Sprintf("%.2f s", c.IOTime.Seconds()),
			fmt.Sprintf("%.1f", c.IOPct),
			stats.MBs(c.Throughput),
			fmt.Sprintf("%.1f", c.UsedPct))
	}
	b.WriteString(tb.String())
	b.WriteString("Best configuration per application:\n")
	for _, p := range r.Best {
		fmt.Fprintf(&b, "  %-20s -> %s\n", p.App, p.Config)
	}
	return b.String()
}

// WriteJSON writes the report as indented JSON under the versioned
// envelope.
func (r *Report) WriteJSON(w io.Writer) error {
	out := *r
	out.Format = ReportFormat
	out.Version = ReportVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&out); err != nil {
		return fmt.Errorf("sweep: encode report: %w", err)
	}
	return nil
}

// WriteFile writes the report to path as JSON.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		_ = f.Close() // the encode error takes precedence
		return err
	}
	return f.Close()
}
