package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"ioeval/internal/mpiio"
)

func TestWriteCSV(t *testing.T) {
	tr := New()
	tr.Record(mk(0, mpiio.OpWrite, 0, mb, 1, 0, 0, 10))
	tr.Record(mk(1, mpiio.OpCompute, -1, 0, 0, 0, 10, 20))
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("csv: %v", err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(recs) != 3 { // header + 2 events
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1][1] != "write" || recs[2][1] != "compute" {
		t.Fatalf("ops = %v %v", recs[1][1], recs[2][1])
	}
}

func TestPhaseCSV(t *testing.T) {
	tr := New()
	tr.Record(mk(0, mpiio.OpWrite, 0, mb, 1, 0, 0, 10))
	tr.Record(mk(0, mpiio.OpBarrier, -1, 0, 0, 0, 10, 11))
	tr.Record(mk(0, mpiio.OpRead, 0, mb, 1, 0, 11, 20))
	var buf bytes.Buffer
	if err := tr.PhaseCSV(&buf, 1); err != nil {
		t.Fatalf("csv: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "write") || !strings.Contains(out, "read") {
		t.Fatalf("phase csv:\n%s", out)
	}
	recs, _ := csv.NewReader(strings.NewReader(out)).ReadAll()
	if len(recs) != 3 {
		t.Fatalf("records = %d", len(recs))
	}
}
