package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"ioeval/internal/mpiio"
)

// Trace logs are serialized as JSON Lines: one event per line, with a
// header line first. The format is the library's analogue of the
// PAS2P trace log: it lets runs be captured once and analyzed offline
// (profiles, phases, signatures, timelines) or diffed across
// configurations.

// traceHeader identifies the format.
type traceHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Events  int    `json:"events"`
}

const traceFormat = "ioeval-trace"

// WriteJSON serializes the captured events to w.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceHeader{Format: traceFormat, Version: 1, Events: len(t.events)}); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for i := range t.events {
		if err := enc.Encode(&t.events[i]); err != nil {
			return fmt.Errorf("trace: write event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSON loads a serialized trace. The header's event count is
// checked against the events actually read, never trusted up front,
// and every event must be one a run could have recorded (checkEvent):
// malformed input returns an error; it never panics.
func ReadJSON(r io.Reader) (*Tracer, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr traceHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if hdr.Format != traceFormat {
		return nil, fmt.Errorf("trace: unexpected format %q", hdr.Format)
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr.Version)
	}
	t := New()
	for {
		var ev mpiio.Event
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: read event %d: %w", len(t.events), err)
		}
		if err := checkEvent(ev); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", len(t.events), err)
		}
		t.events = append(t.events, ev)
	}
	if hdr.Events != len(t.events) {
		return nil, fmt.Errorf("trace: header says %d events, read %d", hdr.Events, len(t.events))
	}
	return t, nil
}

// checkEvent rejects an event no run records: a negative rank, an
// unknown operation, an interval that ends before it starts, or a
// negative byte or operation count. The analyses downstream (rank
// rows, timelines, profiles) assume none of these.
func checkEvent(ev mpiio.Event) error {
	switch {
	case ev.Rank < 0:
		return fmt.Errorf("negative rank %d", ev.Rank)
	case ev.Op < mpiio.OpWrite || ev.Op > mpiio.OpBarrier:
		return fmt.Errorf("unknown op %d", int(ev.Op))
	case ev.T1 < ev.T0:
		return fmt.Errorf("ends at %d before it starts at %d", ev.T1, ev.T0)
	case ev.Bytes < 0:
		return fmt.Errorf("negative bytes %d", ev.Bytes)
	case ev.Count < 0:
		return fmt.Errorf("negative count %d", ev.Count)
	}
	return nil
}
