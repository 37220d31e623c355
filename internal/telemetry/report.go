package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ioeval/internal/sim"
)

// LevelRate is one row of the per-level measured-vs-characterized
// comparison (the paper's Fig. 10 used-% inputs). Rows are produced
// by the evaluator from its UsedTable so that the JSON report carries
// exactly the numbers core.Evaluate used.
type LevelRate struct {
	Level         Level   `json:"level"`
	Op            string  `json:"op"`
	BlockSize     int64   `json:"block_size"`
	Mode          string  `json:"mode"`
	MeasuredRate  float64 `json:"measured_rate_mbps"`
	CharRate      float64 `json:"char_rate_mbps"`
	UsedPct       float64 `json:"used_pct"`
	CharAvailable bool    `json:"char_available"`
}

// PhaseInterval is the telemetry delta over one application phase:
// component snapshots subtracted at the phase's boundaries.
type PhaseInterval struct {
	Label string     `json:"label"`
	Start sim.Time   `json:"start_ns"`
	End   sim.Time   `json:"end_ns"`
	Kind  string     `json:"kind,omitempty"`
	Snaps []Snapshot `json:"components"`
}

// ReportFormat and ReportVersion are the telemetry report's envelope:
// every exported artifact carries {format, version, ...} so a decoder
// can reject foreign or stale documents instead of misreading them.
const (
	ReportFormat  = "ioeval-telemetry-report"
	ReportVersion = 1
)

// Report is the exported telemetry document: whole-run component
// snapshots, per-level rate rows, and optional per-phase deltas.
// Format/Version are stamped by WriteJSON.
type Report struct {
	Format     string          `json:"format,omitempty"`
	Version    int             `json:"version,omitempty"`
	App        string          `json:"app,omitempty"`
	Config     string          `json:"config,omitempty"`
	At         sim.Time        `json:"at_ns"`
	Components []Snapshot      `json:"components"`
	Levels     []LevelRate     `json:"levels,omitempty"`
	Phases     []PhaseInterval `json:"phases,omitempty"`
}

// WriteJSON writes the report as indented JSON under the versioned
// envelope.
func (r *Report) WriteJSON(w io.Writer) error {
	out := *r
	out.Format = ReportFormat
	out.Version = ReportVersion
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&out)
}

// WriteFile writes the report to path as JSON.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		_ = f.Close() // the encode error takes precedence
		return fmt.Errorf("telemetry: encode %s: %w", path, err)
	}
	return f.Close()
}
