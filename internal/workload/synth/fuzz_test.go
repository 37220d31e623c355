package synth

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzParseSpec drives the spec parser with arbitrary bytes: any
// input must either parse to a fully validated spec or return a
// structured *Error — never panic, never accept a spec that the rest
// of the pipeline (Chain, DeclaredBytes, Compile, re-serialization)
// cannot consume. Seed corpus under testdata/fuzz/FuzzParseSpec; run
// the fuzzer with
//
//	go test -fuzz=FuzzParseSpec ./internal/workload/synth
func FuzzParseSpec(f *testing.F) {
	valid := `{
  "name": "seed",
  "procs": 2,
  "files": [{"name": "f", "path": "/f"}],
  "phases": [
    {"name": "w", "loop": 2, "steps": [
      {"op": "write", "file": "f", "access": [{"offset_bytes": 0, "block_bytes": 4096,
        "dims": [{"count": 3, "stride_bytes": 8192}]}], "loop_stride_bytes": 65536}
    ], "next": "r"},
    {"name": "r", "steps": [
      {"op": "read", "file": "f", "collective": true,
       "per_rank_access": [[{"offset_bytes": 0, "block_bytes": 4096}], []]},
      {"op": "barrier"}
    ]}
  ]
}`
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)/2])) // truncated mid-object
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"procs":1,"phasez":[]}`))                                                                                       // unknown field
	f.Add([]byte(`{"procs":2,"phases":[{"name":"a","steps":[],"next":"b"},{"name":"b","steps":[],"next":"a"}]}`))                  // cycle
	f.Add([]byte(`{"procs":2,"phases":[{"name":"a","steps":[{"op":"send","messages":1,"message_bytes":8,"to_rank_offset":2}]}]}`)) // self-send
	f.Add([]byte(`{"procs":99999,"phases":[{"name":"a","steps":[]}]}`))                                                            // over cap
	f.Add([]byte(`{"procs":1,"phases":[{"name":"a","steps":[{"op":"write","file":"f","access":[{"block_bytes":1}]}]}]}`))          // undeclared file
	f.Add([]byte(`{"procs":1,"phases":[{"name":"a","steps":[]}]} trailing`))
	f.Add([]byte(`{"procs":2,"files":[{"name":"f","path":"/f","mount":"local"}],"phases":[{"name":"a","steps":[{"op":"write","file":"f","access":[{"block_bytes":1}]}]}]}`)) // shared file on local disks

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			var se *Error
			if !errors.As(err, &se) {
				t.Fatalf("unstructured error %T: %v", err, err)
			}
			if se.Where == "" || se.Reason == "" {
				t.Fatalf("incomplete structured error: %+v", se)
			}
			return
		}
		// Accepted specs must be consumable end to end without panics.
		_ = s.Chain()
		_, _ = s.DeclaredBytes()
		if _, err := Compile(s); err != nil {
			t.Fatalf("parsed spec fails compile: %v", err)
		}
		// And survive a serialization round trip.
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("re-serialize accepted spec: %v", err)
		}
		if _, err := ParseSpec(buf.Bytes()); err != nil {
			t.Fatalf("re-parse own output: %v", err)
		}
	})
}
