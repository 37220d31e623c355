package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ioeval/internal/sim"
	"ioeval/internal/trace"
)

// Characterizations are persisted as JSON so a configuration is
// measured once and reused across evaluation sessions — the intended
// workflow of the methodology (characterization is the expensive,
// rarely-repeated phase).

type persistedChar struct {
	Format  string               `json:"format"`
	Version int                  `json:"version"`
	Config  string               `json:"config"`
	Tables  map[string][]persRow `json:"tables"`
}

type persRow struct {
	Op        string  `json:"op"`
	BlockSize int64   `json:"block_size"`
	Access    string  `json:"access"`
	Mode      string  `json:"mode"`
	Rate      float64 `json:"rate"`
	IOPS      float64 `json:"iops,omitempty"`
	LatencyNs int64   `json:"latency_ns,omitempty"`
}

const charFormat = "ioeval-characterization"

// WriteJSON serializes the characterization.
func (c *Characterization) WriteJSON(w io.Writer) error {
	out := persistedChar{
		Format:  charFormat,
		Version: 1,
		Config:  c.Config,
		Tables:  map[string][]persRow{},
	}
	for level, t := range c.Tables {
		rows := make([]persRow, 0, len(t.Rows))
		for _, r := range t.Rows {
			rows = append(rows, persRow{
				Op: r.Op.String(), BlockSize: r.BlockSize,
				Access: r.Access.String(), Mode: r.Mode.String(),
				Rate: r.Rate, IOPS: r.IOPS, LatencyNs: int64(r.Latency),
			})
		}
		out.Tables[level.String()] = rows
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("core: write characterization: %w", err)
	}
	return bw.Flush()
}

// ReadCharacterizationJSON loads a persisted characterization.
func ReadCharacterizationJSON(r io.Reader) (*Characterization, error) {
	var in persistedChar
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: read characterization: %w", err)
	}
	if in.Format != charFormat {
		return nil, fmt.Errorf("core: unexpected format %q", in.Format)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("core: unsupported version %d", in.Version)
	}
	ch := &Characterization{Config: in.Config, Tables: map[Level]*PerfTable{}}
	// Iterate level names in sorted order so which malformed entry's
	// error surfaces is deterministic, not a map-order pick.
	levelNames := make([]string, 0, len(in.Tables))
	for levelName := range in.Tables {
		levelNames = append(levelNames, levelName)
	}
	sort.Strings(levelNames)
	for _, levelName := range levelNames {
		rows := in.Tables[levelName]
		level, err := parseLevel(levelName)
		if err != nil {
			return nil, err
		}
		t := &PerfTable{Level: level, Config: in.Config}
		for _, pr := range rows {
			row := Row{
				BlockSize: pr.BlockSize,
				Rate:      pr.Rate,
				IOPS:      pr.IOPS,
				Latency:   sim.Duration(pr.LatencyNs),
			}
			if row.Op, err = parseOp(pr.Op); err != nil {
				return nil, err
			}
			if row.Access, err = parseAccess(pr.Access); err != nil {
				return nil, err
			}
			if row.Mode, err = parseMode(pr.Mode); err != nil {
				return nil, err
			}
			t.Add(row)
		}
		ch.Tables[level] = t
	}
	return ch, nil
}

func parseLevel(s string) (Level, error) {
	for _, l := range Levels() {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("core: unknown level %q", s)
}

func parseOp(s string) (OpType, error) {
	switch s {
	case "read":
		return Read, nil
	case "write":
		return Write, nil
	}
	return 0, fmt.Errorf("core: unknown operation %q", s)
}

func parseAccess(s string) (AccessType, error) {
	switch s {
	case "local":
		return Local, nil
	case "global":
		return Global, nil
	}
	return 0, fmt.Errorf("core: unknown access type %q", s)
}

func parseMode(s string) (trace.AccessMode, error) {
	switch s {
	case "sequential":
		return trace.Sequential, nil
	case "strided":
		return trace.Strided, nil
	case "random":
		return trace.Random, nil
	}
	return 0, fmt.Errorf("core: unknown access mode %q", s)
}
