package synth_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ioeval/internal/sim"
	"ioeval/internal/workload/btio"
	"ioeval/internal/workload/madbench"
	"ioeval/internal/workload/synth"
)

// TestSynthExampleSpecsInSync pins the committed example spec files
// to the generators that produced them: examples/synth-workload/*.json
// must be byte-identical to the corresponding `iosynth -emit ... -quick`
// output, so DSL or generator changes cannot silently strand the
// examples. Regenerate with:
//
//	go run ./cmd/iosynth -emit btio-full -procs 4 -quick -out examples/synth-workload/btio-full.json
//	go run ./cmd/iosynth -emit madbench-shared -procs 4 -quick -out examples/synth-workload/madbench-shared.json
func TestSynthExampleSpecsInSync(t *testing.T) {
	cases := []struct {
		file string
		spec *synth.Spec
	}{
		{"btio-full.json", btio.New(btio.Config{
			Class: btio.ClassA, Procs: 4, Subtype: btio.Full, ComputeScale: 1,
		}).Spec()},
		{"madbench-shared.json", madbench.New(madbench.Config{
			Procs: 4, KPix: 4, FileType: madbench.Shared, BusyWork: sim.Second,
		}).Spec()},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			path := filepath.Join("..", "..", "..", "examples", "synth-workload", tc.file)
			committed, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("committed example spec: %v", err)
			}
			var buf bytes.Buffer
			if err := tc.spec.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(committed, buf.Bytes()) {
				t.Errorf("%s drifted from its generator; regenerate with iosynth -emit (see test comment)", tc.file)
			}
		})
	}
}
