package bench

import (
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

func TestIOzoneLocalFSSweep(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	cfg := IOzoneConfig{
		FileSize:   512 * mb, // small but > nothing; cache drop keeps it cold
		BlockSizes: []int64{64 * kb, mb, 16 * mb},
		Modes:      []Mode{SeqWrite, SeqRead},
		BetweenRuns: func(p *sim.Proc) {
			c.IOCache.DropCaches(ioreq.Meta(p))
		},
	}
	results, err := RunIOzone(c.Eng, c.ServerFS, cfg)
	if err != nil {
		t.Fatalf("iozone: %v", err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6", len(results))
	}
	rates := map[Mode]map[int64]float64{SeqWrite: {}, SeqRead: {}}
	for _, r := range results {
		if r.Rate <= 0 || r.IOPS <= 0 || r.Latency <= 0 {
			t.Fatalf("degenerate result: %+v", r)
		}
		rates[r.Mode][r.BlockSize] = r.Rate
	}
	// Bigger blocks must not be slower (per-op overhead amortizes).
	if rates[SeqWrite][16*mb] < rates[SeqWrite][64*kb] {
		t.Fatalf("write rate decreased with block size: %v", rates[SeqWrite])
	}
}

func TestIOzoneColdReadsBoundByDisk(t *testing.T) {
	// With dropped caches and a file twice the cache size, local reads
	// on JBOD must be bounded by the single disk (~100 MB/s), not the
	// memory rate.
	c := cluster.Aohyper(cluster.JBOD)
	cfg := IOzoneConfig{
		FileSize:   3 * gb, // 2× the server page cache (1.5 GB)
		BlockSizes: []int64{4 * mb},
		Modes:      []Mode{SeqWrite, SeqRead},
	}
	results, err := RunIOzone(c.Eng, c.ServerFS, cfg)
	if err != nil {
		t.Fatalf("iozone: %v", err)
	}
	for _, r := range results {
		if r.Mode == SeqRead {
			mbs := r.Rate / 1e6
			if mbs > 110 {
				t.Fatalf("cold read rate %.1f MB/s beats the disk", mbs)
			}
			if mbs < 50 {
				t.Fatalf("cold read rate %.1f MB/s implausibly low", mbs)
			}
		}
	}
}

func TestIOzoneWarmReadsBeatDisk(t *testing.T) {
	// File smaller than the cache, no drops: the second pass (SeqRead
	// after the populate pass) runs at memory speed — the >100% effect.
	c := cluster.Aohyper(cluster.JBOD)
	cfg := IOzoneConfig{
		FileSize:   256 * mb,
		BlockSizes: []int64{4 * mb},
		Modes:      []Mode{SeqRead},
	}
	results, err := RunIOzone(c.Eng, c.ServerFS, cfg)
	if err != nil {
		t.Fatalf("iozone: %v", err)
	}
	if mbs := results[0].Rate / 1e6; mbs < 500 {
		t.Fatalf("warm read rate %.1f MB/s, want memory-speed", mbs)
	}
}

func TestIOzoneRandomSlowerThanSequential(t *testing.T) {
	c := cluster.Aohyper(cluster.JBOD)
	cfg := IOzoneConfig{
		FileSize:   3 * gb,
		BlockSizes: []int64{64 * kb},
		Modes:      []Mode{SeqRead, RandRead},
		RandomOps:  500,
	}
	results, err := RunIOzone(c.Eng, c.ServerFS, cfg)
	if err != nil {
		t.Fatalf("iozone: %v", err)
	}
	var seq, rnd float64
	for _, r := range results {
		if r.Mode == SeqRead {
			seq = r.Rate
		} else {
			rnd = r.Rate
		}
	}
	if rnd*2 > seq {
		t.Fatalf("random read (%.1f MB/s) not ≪ sequential (%.1f MB/s)", rnd/1e6, seq/1e6)
	}
}

func TestIOzoneOverNFSBoundByWire(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	cfg := IOzoneConfig{
		FileSize:   gb,
		BlockSizes: []int64{mb},
		Modes:      []Mode{SeqWrite, SeqRead},
	}
	results, err := RunIOzone(c.Eng, c.Nodes[0].NFS, cfg)
	if err != nil {
		t.Fatalf("iozone: %v", err)
	}
	for _, r := range results {
		if mbs := r.Rate / 1e6; mbs > 117 {
			t.Fatalf("%v over NFS at %.1f MB/s beats GigE", r.Mode, mbs)
		}
	}
}

func TestIORSweepShape(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	cfg := IORConfig{
		Procs:        8,
		FileSize:     256 * mb,
		BlockSizes:   []int64{mb, 16 * mb},
		TransferSize: 256 * kb,
	}
	results, err := RunIOR(c, cfg)
	if err != nil {
		t.Fatalf("ior: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.WriteRate <= 0 || r.ReadRate <= 0 {
			t.Fatalf("degenerate: %+v", r)
		}
		// Library-level rates on NFS cannot beat the server NIC.
		if r.WriteRate > 117e6 {
			t.Fatalf("IOR write %.1f MB/s beats wire", r.WriteRate/1e6)
		}
	}
	// With a cache-resident file both points are wire-bound; allow
	// modest variation but no collapse across the sweep.
	if results[1].WriteRate < 0.7*results[0].WriteRate {
		t.Fatalf("write rate collapsed with block size: %.1f -> %.1f MB/s",
			results[0].WriteRate/1e6, results[1].WriteRate/1e6)
	}
}

func TestIORCollectiveVsIndependent(t *testing.T) {
	run := func(coll bool) float64 {
		c := cluster.Aohyper(cluster.RAID5)
		cfg := IORConfig{
			Procs:        8,
			FileSize:     64 * mb,
			BlockSizes:   []int64{8 * mb},
			TransferSize: 64 * kb,
			Collective:   coll,
		}
		results, err := RunIOR(c, cfg)
		if err != nil {
			t.Fatalf("ior: %v", err)
		}
		return results[0].WriteRate
	}
	indep, coll := run(false), run(true)
	// With small transfers, collective buffering must win (it merges
	// the 64 KB transfers into large aggregator writes).
	if coll <= indep {
		t.Fatalf("collective (%.1f MB/s) not faster than independent (%.1f MB/s)",
			coll/1e6, indep/1e6)
	}
}

func TestBonnie(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	res, err := RunBonnie(c.Eng, c.ServerFS, BonnieConfig{FileSize: 256 * mb, MetaFiles: 256})
	if err != nil {
		t.Fatalf("bonnie: %v", err)
	}
	if res.BlockWrite <= 0 || res.BlockRead <= 0 || res.Rewrite <= 0 {
		t.Fatalf("block rates: %+v", res)
	}
	if res.CreatesPerS <= 0 || res.StatsPerS <= 0 || res.DeletesPerS <= 0 {
		t.Fatalf("meta rates: %+v", res)
	}
	// Metadata ops cost ~100–200 µs each ⇒ thousands per second, not
	// millions (sanity on the cost model).
	if res.CreatesPerS > 1e6 {
		t.Fatalf("creates/s = %.0f, implausibly fast", res.CreatesPerS)
	}
}

func TestIOzoneBadConfigPanics(t *testing.T) {
	c := cluster.Aohyper(cluster.JBOD)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero file size")
		}
	}()
	RunIOzone(c.Eng, c.ServerFS, IOzoneConfig{})
}

// TestLibraryBenchBadConfigErrors: configurations IOR and b_eff_io
// cannot run come back as errors naming the fault, never as panics.
func TestLibraryBenchBadConfigErrors(t *testing.T) {
	ior := IORConfig{Procs: 2, FileSize: 8 * mb, BlockSizes: []int64{mb}, TransferSize: 256 * kb}
	beff := BeffIOConfig{Procs: 2, TransferSizes: []int64{32 * kb}, BytesPerRank: mb}
	runIOR := func(edit func(*IORConfig)) func(*cluster.Cluster) error {
		return func(c *cluster.Cluster) error {
			cfg := ior
			edit(&cfg)
			_, err := RunIOR(c, cfg)
			return err
		}
	}
	runPoint := func(procs int, bs int64) func(*cluster.Cluster) error {
		return func(c *cluster.Cluster) error {
			cfg := ior
			cfg.Procs = procs
			_, err := RunIORPoint(c, cfg, bs)
			return err
		}
	}
	runBeff := func(edit func(*BeffIOConfig)) func(*cluster.Cluster) error {
		return func(c *cluster.Cluster) error {
			cfg := beff
			edit(&cfg)
			_, err := RunBeffIO(c, cfg)
			return err
		}
	}
	cases := []struct {
		name, want string
		run        func(*cluster.Cluster) error
	}{
		{"ior no procs", "IOR needs processes, got 0",
			runIOR(func(cfg *IORConfig) { cfg.Procs = 0 })},
		{"ior point negative procs", "IOR needs processes, got -1", runPoint(-1, mb)},
		// Rejected by spec validation before any rank starts.
		{"ior procs over the spec cap", "procs 5000 outside",
			runIOR(func(cfg *IORConfig) { cfg.Procs = 5000 })},
		{"ior block not a whole number of transfers", "block size 1052672 is not a positive multiple",
			runIOR(func(cfg *IORConfig) { cfg.BlockSizes = []int64{mb + 4*kb} })},
		{"ior point block smaller than a transfer", "block size 65536 is not a positive multiple", runPoint(2, 64*kb)},
		{"ior point zero block", "block size 0 is not a positive multiple", runPoint(2, 0)},
		{"ior pfs without a parallel filesystem", "no parallel filesystem",
			runIOR(func(cfg *IORConfig) { cfg.UsePFS = true })},
		{"beffio no procs", "procs 0 outside",
			runBeff(func(cfg *BeffIOConfig) { cfg.Procs = 0 })},
		{"beffio zero transfer size", "transfer size 0 is not positive",
			runBeff(func(cfg *BeffIOConfig) { cfg.TransferSizes = []int64{0} })},
		{"beffio less than one transfer per rank", "dim count 0 outside",
			runBeff(func(cfg *BeffIOConfig) { cfg.BytesPerRank = 16 * kb })},
		{"beffio unknown pattern", "unknown b_eff_io pattern",
			runBeff(func(cfg *BeffIOConfig) { cfg.Patterns = []BeffPattern{BeffSeparate + 1} })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(cluster.Aohyper(cluster.JBOD))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
