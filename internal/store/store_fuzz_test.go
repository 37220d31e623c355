package store

import (
	"bytes"
	"testing"
)

// fuzzFP is the fingerprint every FuzzDecodeEntry input is decoded
// under; seed_fingerprint_mismatch holds an entry written for another.
const fuzzFP = "0123abcd"

// FuzzDecodeEntry checks the store-entry decoder on arbitrary bytes:
// it never panics, and an entry it accepts holds tables that survive
// a put/load round trip unchanged. Seed corpus under
// testdata/fuzz/FuzzDecodeEntry; run the fuzzer with
//
//	go test -run '^$' -fuzz=FuzzDecodeEntry ./internal/store
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		ch, err := decodeEntry(fuzzFP, raw)
		if err != nil {
			return // malformed entry rejected cleanly
		}
		want := charBytes(t, ch)
		s := open(t, t.TempDir())
		s.put(fuzzFP, want)
		got, ok := s.load(fuzzFP)
		if !ok {
			t.Fatalf("entry accepted from input did not load back after put:\n%s", want)
		}
		if g := charBytes(t, got); !bytes.Equal(g, want) {
			t.Fatalf("tables changed in a put/load round trip:\n%s\n---\n%s", want, g)
		}
	})
}
