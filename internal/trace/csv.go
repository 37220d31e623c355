package trace

import (
	"encoding/csv"
	"fmt"
	"io"

	"ioeval/internal/mpiio"
)

// WriteCSV exports the I/O events as CSV for external plotting
// (rank, op, file, offset, bytes, count, t0_ns, t1_ns). Compute,
// communication and barrier events are included so Jumpshot-style
// charts can be rebuilt outside the library.
func (t *Tracer) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rank", "op", "file", "offset", "bytes", "count", "t0_ns", "t1_ns"}); err != nil {
		return fmt.Errorf("trace: write csv header: %w", err)
	}
	for _, ev := range t.events {
		rec := []string{
			fmt.Sprint(ev.Rank),
			ev.Op.String(),
			ev.File,
			fmt.Sprint(ev.Offset),
			fmt.Sprint(ev.Bytes),
			fmt.Sprint(ev.Count),
			fmt.Sprint(int64(ev.T0)),
			fmt.Sprint(int64(ev.T1)),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write csv event: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// PhaseCSV exports the detected phases of every rank
// (rank, kind, mode, ops, bytes, start_ns, end_ns, rate_bps).
func (t *Tracer) PhaseCSV(w io.Writer, ranks int) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"rank", "kind", "mode", "ops", "bytes", "start_ns", "end_ns", "rate_bps"}); err != nil {
		return fmt.Errorf("trace: write phase header: %w", err)
	}
	for rank := 0; rank < ranks; rank++ {
		for _, ph := range t.Phases(rank) {
			kind := "write"
			if ph.Kind == mpiio.OpRead {
				kind = "read"
			}
			rec := []string{
				fmt.Sprint(rank), kind, ph.Mode.String(),
				fmt.Sprint(ph.Ops), fmt.Sprint(ph.Bytes),
				fmt.Sprint(int64(ph.Start)), fmt.Sprint(int64(ph.End)),
				fmt.Sprintf("%.0f", ph.TransferRate()),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("trace: write phase row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
