package core

import (
	"bytes"
	"testing"
)

// FuzzReadCharacterizationJSON drives the characterization decoder
// with arbitrary bytes: malformed input must return an error — never
// panic — and input it accepts must re-encode to bytes that decode and
// re-encode identically. Seed corpus under
// testdata/fuzz/FuzzReadCharacterizationJSON; run the fuzzer with
//
//	go test -run '^$' -fuzz=FuzzReadCharacterizationJSON ./internal/core
func FuzzReadCharacterizationJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := ReadCharacterizationJSON(bytes.NewReader(data))
		if err != nil {
			return // malformed input rejected cleanly
		}
		var first bytes.Buffer
		if err := ch.WriteJSON(&first); err != nil {
			t.Fatalf("re-encode accepted input: %v", err)
		}
		again, err := ReadCharacterizationJSON(bytes.NewReader(first.Bytes()))
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
