package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/library.sha256 with current results")

// libraryDigests pins the library-level benchmarks, one SHA-256 of
// each run's printed result (%v keeps every rate at full float
// precision). The digests were recorded from the hand-written IOR and
// b_eff_io rank loops that the synth spec generators replaced, so they
// carry those loops' timing windows forward. Every case moves at least
// two transfers per rank: single-transfer steps take the library's
// WriteAt/ReadAt path, which the old loops never used.
const libraryDigests = "testdata/library.sha256"

func aohyperPFS() *cluster.Cluster {
	cfg := cluster.Aohyper(cluster.RAID5).Cfg
	cfg.PFSIONodes = 2
	return cluster.New(cfg)
}

func TestSynthLibraryBenchDigests(t *testing.T) {
	ior := func(c *cluster.Cluster, cfg IORConfig) any {
		res, err := RunIOR(c, cfg)
		if err != nil {
			t.Fatalf("ior: %v", err)
		}
		return res
	}
	// The second block size exceeds FileSize/Procs, so that point runs
	// IOR's one-segment minimum.
	iorCfg := IORConfig{Procs: 4, FileSize: 16 * mb, BlockSizes: []int64{mb, 8 * mb}, TransferSize: 256 * kb}
	cases := []struct {
		name string
		run  func() any
	}{
		{"ior-independent", func() any {
			return ior(cluster.Aohyper(cluster.RAID5), iorCfg)
		}},
		{"ior-collective", func() any {
			cfg := iorCfg
			cfg.Collective, cfg.TransferSize = true, 64*kb
			return ior(cluster.Aohyper(cluster.RAID5), cfg)
		}},
		{"ior-pfs", func() any {
			cfg := iorCfg
			cfg.UsePFS = true
			return ior(aohyperPFS(), cfg)
		}},
		{"ior-charplan-drop", func() any {
			// The characterization plan's unit: one point on a fresh
			// cluster, rank 0 dropping the I/O node's caches first.
			c := cluster.Aohyper(cluster.RAID5)
			cfg := iorCfg
			cfg.BetweenRuns = func(p *sim.Proc) { c.IOCache.DropCaches(ioreq.Meta(p)) }
			res, err := RunIORPoint(c, cfg, 2*mb)
			if err != nil {
				t.Fatalf("ior point: %v", err)
			}
			return res
		}},
		{"beffio-raid5", func() any {
			sum, err := RunBeffIO(cluster.Aohyper(cluster.RAID5), BeffIOConfig{
				Procs: 4, TransferSizes: []int64{32 * kb, mb}, BytesPerRank: 2 * mb,
			})
			if err != nil {
				t.Fatalf("b_eff_io: %v", err)
			}
			return sum
		}},
		{"beffio-jbod", func() any {
			sum, err := RunBeffIO(cluster.Aohyper(cluster.JBOD), BeffIOConfig{
				Procs: 2, TransferSizes: []int64{64 * kb, 512 * kb}, BytesPerRank: 3 * mb,
			})
			if err != nil {
				t.Fatalf("b_eff_io: %v", err)
			}
			return sum
		}},
	}
	digests := readLibraryDigests(t)
	for _, tc := range cases {
		sum := sha256.Sum256([]byte(fmt.Sprintf("%v", tc.run())))
		got := hex.EncodeToString(sum[:])
		if *update {
			digests[tc.name] = got
			continue
		}
		want, ok := digests[tc.name]
		if !ok {
			t.Errorf("%s has no entry %q (run with -update to add it)", libraryDigests, tc.name)
		} else if got != want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, want)
		}
	}
	if *update {
		writeLibraryDigests(t, digests)
	}
}

func readLibraryDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	f, err := os.Open(libraryDigests)
	if os.IsNotExist(err) && *update {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", libraryDigests, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeLibraryDigests(t *testing.T, digests map[string]string) {
	t.Helper()
	names := make([]string, 0, len(digests))
	for n := range digests {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s  %s\n", digests[n], n)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(libraryDigests, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
