package bench

import (
	"fmt"

	"ioeval/internal/cluster"
	"ioeval/internal/sim"
	"ioeval/internal/workload/synth"
)

// IORConfig parameterizes the library-level characterization (the
// paper: 8 processes, block sizes 1 MB – 1024 MB per process,
// 256 KB transfer size, a fixed 32 GB file on the shared NFS
// storage). The file size is constant across the block-size sweep —
// IOR's segment count adjusts — so every point stresses the system
// identically (total bytes moved = FileSize for each point).
type IORConfig struct {
	Path         string
	Procs        int
	FileSize     int64   // total shared file size (0 = 32 GiB)
	BlockSizes   []int64 // per-process contiguous block, swept
	TransferSize int64   // bytes per library call
	// Collective uses MPI_File_write_at_all (two-phase); the paper's
	// IOR runs use independent I/O.
	Collective bool
	// UsePFS runs against the cluster's parallel filesystem instead
	// of NFS.
	UsePFS bool
	// BetweenRuns, when set, runs on rank 0 before it opens the file
	// (the characterization plan drops the I/O node's caches there).
	BetweenRuns func(p *sim.Proc)
}

// DefaultIORBlockSizes is the paper's 1 MB … 1024 MB sweep.
func DefaultIORBlockSizes() []int64 {
	var out []int64
	for bs := int64(1 << 20); bs <= 1<<30; bs *= 4 {
		out = append(out, bs)
	}
	return out
}

// IORResult is one sweep point.
type IORResult struct {
	BlockSize int64
	WriteRate float64 // aggregate bytes/second
	ReadRate  float64
}

// withDefaults fills the paper's parameters for unset fields and
// rejects a run without processes.
func (cfg IORConfig) withDefaults() (IORConfig, error) {
	if cfg.Path == "" {
		cfg.Path = "/ior.tmp"
	}
	if cfg.Procs < 1 {
		return cfg, fmt.Errorf("bench: IOR needs processes, got %d", cfg.Procs)
	}
	if cfg.TransferSize <= 0 {
		cfg.TransferSize = 256 << 10
	}
	if cfg.FileSize <= 0 {
		cfg.FileSize = 32 << 30
	}
	if len(cfg.BlockSizes) == 0 {
		cfg.BlockSizes = DefaultIORBlockSizes()
	}
	return cfg, nil
}

// checkBlock applies IOR's rule that a block is a whole number of
// transfers.
func (cfg IORConfig) checkBlock(bs int64) error {
	if bs <= 0 || bs%cfg.TransferSize != 0 {
		return fmt.Errorf("bench: IOR block size %d is not a positive multiple of the transfer size %d", bs, cfg.TransferSize)
	}
	return nil
}

// RunIOR measures MPI-IO library-level rates on the cluster's shared
// storage: every rank writes then reads its own BlockSize segment of
// one shared file in TransferSize operations.
func RunIOR(c *cluster.Cluster, cfg IORConfig) ([]IORResult, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	for _, bs := range cfg.BlockSizes {
		if err := cfg.checkBlock(bs); err != nil {
			return nil, err
		}
	}
	var results []IORResult
	for _, bs := range cfg.BlockSizes {
		res, err := RunIORPoint(c, cfg, bs)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}

// RunIORPoint measures a single block-size point — the per-unit entry
// point of the characterization shard plan (see internal/core). The
// write pass populates the shared file the read pass consumes, so a
// point is self-contained on a freshly built cluster. The write window
// opens at rank 0's write and the read window at the first rank's
// read; both close at the last rank's end.
func RunIORPoint(c *cluster.Cluster, cfg IORConfig, bs int64) (IORResult, error) {
	cfg, err := cfg.withDefaults()
	if err == nil {
		err = cfg.checkBlock(bs)
	}
	if err != nil {
		return IORResult{}, err
	}
	win, err := runSpec(c, iorSpec(cfg, bs), cfg.BetweenRuns)
	if err != nil {
		return IORResult{}, err
	}
	return IORResult{
		BlockSize: bs,
		WriteRate: rate(win.wrote, win.rank0Write, win.writeEnd),
		ReadRate:  rate(win.read, win.firstRead, win.readEnd),
	}, nil
}

// iorSpec is one IOR point as a synth spec. The shared file is
// segments × (np × block); rank r owns block r of every segment and
// moves it in TransferSize operations: a write step, a barrier, then a
// read step.
func iorSpec(cfg IORConfig, bs int64) *synth.Spec {
	np := int64(cfg.Procs)
	segments := max(cfg.FileSize/(np*bs), 1)
	mount := "nfs"
	if cfg.UsePFS {
		mount = "pfs"
	}
	acc := []synth.AccessSpec{{BlockBytes: cfg.TransferSize, Dims: []synth.DimSpec{
		{Count: int(segments), StrideBytes: np * bs},
		{Count: int(bs / cfg.TransferSize), StrideBytes: cfg.TransferSize},
	}}}
	io := func(op string) synth.StepSpec {
		return synth.StepSpec{Op: op, File: "ior", Collective: cfg.Collective, Access: acc, RankStrideBytes: bs}
	}
	return &synth.Spec{
		Name:  "IOR",
		Procs: cfg.Procs,
		Files: []synth.FileSpec{{Name: "ior", Path: cfg.Path, Mount: mount, CollectiveBuffering: cfg.Collective}},
		Phases: []synth.PhaseSpec{{Name: "ior", Steps: []synth.StepSpec{
			io(synth.OpWrite), {Op: synth.OpBarrier}, io(synth.OpRead),
		}}},
	}
}
