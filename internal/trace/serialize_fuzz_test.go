package trace

import (
	"bytes"
	"testing"
)

// FuzzReadJSON drives the JSONL trace decoder — the one tracetool
// feeds with user files — with arbitrary bytes: malformed input must
// return an error, never panic (an oversized header event count
// included), and input it accepts must re-encode to bytes that decode
// and re-encode identically. Seed corpus under
// testdata/fuzz/FuzzReadJSON; run the fuzzer with
//
//	go test -run '^$' -fuzz=FuzzReadJSON ./internal/trace
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected cleanly
		}
		var first bytes.Buffer
		if err := tr.WriteJSON(&first); err != nil {
			t.Fatalf("re-encode accepted input: %v", err)
		}
		again, err := ReadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("decode own output: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("re-encode decoded output: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding not stable:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
