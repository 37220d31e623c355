package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"ioeval/internal/mpiio"
	"ioeval/internal/sim"
)

func TestJSONRoundTrip(t *testing.T) {
	tr := New()
	tr.Record(mk(0, mpiio.OpOpen, -1, 0, 1, 0, 0, 5))
	tr.Record(mk(1, mpiio.OpWrite, 4096, 64*kb, 16, 8*kb, 5, 50))
	tr.Record(mk(0, mpiio.OpRead, 0, mb, 1, 0, 50, 90))

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got.Events()) != 3 {
		t.Fatalf("events = %d", len(got.Events()))
	}
	for i, ev := range got.Events() {
		if ev != tr.Events()[i] {
			t.Fatalf("event %d: %+v != %+v", i, ev, tr.Events()[i])
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("expected error on garbage")
	}
	if _, err := ReadJSON(strings.NewReader(`{"format":"other","version":1,"events":0}`)); err == nil {
		t.Fatal("expected error on wrong format")
	}
	if _, err := ReadJSON(strings.NewReader(`{"format":"ioeval-trace","version":9,"events":0}`)); err == nil {
		t.Fatal("expected error on wrong version")
	}
}

// TestReadJSONRejectsBadEvents checks that an event no run records is
// refused rather than loaded into the rank rows and timeline.
func TestReadJSONRejectsBadEvents(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   mpiio.Event
	}{
		{"negative rank", mk(-1, mpiio.OpWrite, 0, kb, 1, 0, 0, 10)},
		{"ends before start", mk(0, mpiio.OpWrite, 0, kb, 1, 0, 50, 10)},
		{"op below range", mk(0, mpiio.OpWrite-1, 0, kb, 1, 0, 0, 10)},
		{"op above range", mk(0, mpiio.OpBarrier+1, 0, kb, 1, 0, 0, 10)},
		{"negative bytes", mk(0, mpiio.OpRead, 0, -kb, 1, 0, 0, 10)},
		{"negative count", mk(0, mpiio.OpRead, 0, kb, -1, 0, 0, 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := New()
			tr.Record(mk(0, mpiio.OpOpen, -1, 0, 1, 0, 0, 5))
			tr.Record(tc.ev)
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := ReadJSON(&buf); err == nil {
				t.Fatalf("accepted %+v", tc.ev)
			}
		})
	}
}

func TestReadJSONDetectsTruncation(t *testing.T) {
	tr := New()
	tr.Record(mk(0, mpiio.OpWrite, 0, mb, 1, 0, 0, 10))
	tr.Record(mk(0, mpiio.OpRead, 0, mb, 1, 0, 10, 20))
	var buf bytes.Buffer
	tr.WriteJSON(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	truncated := strings.Join(lines[:2], "\n") // header + first event only
	if _, err := ReadJSON(strings.NewReader(truncated)); err == nil {
		t.Fatal("expected error on truncated trace")
	}
}

// Property: round trip preserves any event sequence, and the derived
// profile is identical.
func TestQuickRoundTripPreservesProfile(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := New()
		tm := sim.Time(0)
		ops := []mpiio.Op{mpiio.OpWrite, mpiio.OpRead, mpiio.OpCompute, mpiio.OpOpen}
		for i, r := range raw {
			op := ops[int(r)%len(ops)]
			tr.Record(mpiio.Event{
				Rank: i % 4, Op: op, File: "/f",
				Offset: int64(r) * 100, Bytes: int64(r%64+1) * 1024,
				Count: int(r%5) + 1, T0: tm, T1: tm + sim.Time(r%97+1),
			})
			tm += sim.Time(r%97 + 1)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		a, b := tr.Profile(), got.Profile()
		return a.NumReads == b.NumReads && a.NumWrites == b.NumWrites &&
			a.BytesRead == b.BytesRead && a.BytesWritten == b.BytesWritten &&
			a.ExecTime == b.ExecTime && a.IOTime == b.IOTime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
