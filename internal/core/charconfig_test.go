package core

import (
	"reflect"
	"testing"

	"ioeval/internal/bench"
)

// TestWithDefaults pins the normalization that feeds Fingerprint (and
// the shard-plan builder): unset fields fill with the paper's values
// or the probe cluster's stress-rule sizes, set fields pass through
// untouched.
func TestWithDefaults(t *testing.T) {
	probe := goldenCluster() // IONodeRAM = NodeRAM = 256 MB
	ram := probe.Cfg.NodeRAM

	cases := []struct {
		name  string
		in    CharacterizeConfig
		check func(t *testing.T, got CharacterizeConfig)
	}{
		{
			name: "zero config fills the paper defaults",
			in:   CharacterizeConfig{},
			check: func(t *testing.T, got CharacterizeConfig) {
				if !reflect.DeepEqual(got.FSBlockSizes, bench.DefaultBlockSizes()) {
					t.Error("FSBlockSizes not the paper sweep")
				}
				if !reflect.DeepEqual(got.FSModes, []bench.Mode{bench.SeqWrite, bench.SeqRead}) {
					t.Errorf("FSModes = %v", got.FSModes)
				}
				if got.LibProcs != 8 || got.LibTransfer != 256<<10 || got.LibFileSize != 32<<30 {
					t.Errorf("library params = %d/%d/%d", got.LibProcs, got.LibTransfer, got.LibFileSize)
				}
				if !reflect.DeepEqual(got.LibBlockSizes, bench.DefaultIORBlockSizes()) {
					t.Error("LibBlockSizes not the paper sweep")
				}
				if got.RandomOps != 4096 {
					t.Errorf("RandomOps = %d", got.RandomOps)
				}
			},
		},
		{
			name: "file sizes derive from probe RAM (stress rule)",
			in:   CharacterizeConfig{},
			check: func(t *testing.T, got CharacterizeConfig) {
				if got.LocalFileSize != 2*ram {
					t.Errorf("LocalFileSize = %d, want 2×IONodeRAM = %d", got.LocalFileSize, 2*ram)
				}
				if got.GlobalFileSize != 2*ram {
					t.Errorf("GlobalFileSize = %d, want 2×NodeRAM = %d", got.GlobalFileSize, 2*ram)
				}
			},
		},
		{
			name: "set fields pass through untouched",
			in: CharacterizeConfig{
				FSBlockSizes:   []int64{mb},
				FSModes:        []bench.Mode{bench.RandRead},
				LocalFileSize:  10 * mb,
				GlobalFileSize: 20 * mb,
				RandomOps:      3,
				LibProcs:       2,
				LibBlockSizes:  []int64{4 * mb},
				LibTransfer:    kb,
				LibFileSize:    8 * mb,
			},
			check: func(t *testing.T, got CharacterizeConfig) {
				want := CharacterizeConfig{
					FSBlockSizes:   []int64{mb},
					FSModes:        []bench.Mode{bench.RandRead},
					LocalFileSize:  10 * mb,
					GlobalFileSize: 20 * mb,
					RandomOps:      3,
					LibProcs:       2,
					LibBlockSizes:  []int64{4 * mb},
					LibTransfer:    kb,
					LibFileSize:    8 * mb,
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("got %+v, want %+v", got, want)
				}
			},
		},
		{
			name: "DefaultCharacterizeConfig is already normalized but for sizes",
			in:   DefaultCharacterizeConfig(),
			check: func(t *testing.T, got CharacterizeConfig) {
				want := DefaultCharacterizeConfig()
				want.LocalFileSize = 2 * ram
				want.GlobalFileSize = 2 * ram
				if !reflect.DeepEqual(got, want) {
					t.Errorf("got %+v, want %+v", got, want)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.withDefaults(probe)
			tc.check(t, got)

			// Idempotence: normalization is a fixed point, which is what
			// lets Fingerprint hash the normalized form as canonical.
			again := got.withDefaults(probe)
			if !reflect.DeepEqual(again, got) {
				t.Errorf("withDefaults not idempotent: %+v -> %+v", got, again)
			}
		})
	}
}

// TestWithDefaultsFingerprintCanonical: a zero config and its
// explicitly spelled-out normalization must fingerprint identically —
// the store key depends on what would be measured, not on how the
// config was written.
func TestWithDefaultsFingerprintCanonical(t *testing.T) {
	implicit, err := Fingerprint(goldenCluster, CharacterizeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Fingerprint(goldenCluster, CharacterizeConfig{}.withDefaults(goldenCluster()))
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Errorf("fingerprints differ: %s vs %s", implicit, explicit)
	}
}
