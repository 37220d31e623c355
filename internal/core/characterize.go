package core

import (
	"fmt"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
)

// CharacterizeConfig controls the system-characterization phase.
type CharacterizeConfig struct {
	// FSBlockSizes is the filesystem-level sweep (default: the
	// paper's 32 KB – 16 MB).
	FSBlockSizes []int64
	// FSModes are the IOzone modes characterized per level (default:
	// sequential, strided and random, reads and writes).
	FSModes []bench.Mode
	// LocalFileSize / GlobalFileSize default to twice the I/O node's /
	// compute node's RAM, the paper's stress rule.
	LocalFileSize, GlobalFileSize int64
	// RandomOps caps random-mode operations per measurement.
	RandomOps int

	// Library-level (IOR) sweep parameters: the paper used 8
	// processes and 256 KB transfers over 1 MB – 1024 MB blocks of a
	// fixed 32 GB shared file.
	LibProcs      int
	LibBlockSizes []int64
	LibTransfer   int64
	LibFileSize   int64

	// UsePFS characterizes the cluster's parallel filesystem instead
	// of NFS: the global level is a PFS client, the local level one
	// PFS server node's filesystem (the cluster must be built with
	// Config.PFSIONodes > 0).
	UsePFS bool
}

// withDefaults returns the config with every unset field filled in:
// the paper's sweep parameters, and the stress-rule file sizes derived
// from the probe cluster's RAM. The result is fully determined — two
// configs that characterize identically normalize identically — which
// is what makes it the canonical input of Fingerprint.
func (cfg CharacterizeConfig) withDefaults(probe *cluster.Cluster) CharacterizeConfig {
	if len(cfg.FSBlockSizes) == 0 {
		cfg.FSBlockSizes = bench.DefaultBlockSizes()
	}
	if len(cfg.FSModes) == 0 {
		cfg.FSModes = []bench.Mode{bench.SeqWrite, bench.SeqRead}
	}
	if cfg.LibProcs == 0 {
		cfg.LibProcs = 8
	}
	if len(cfg.LibBlockSizes) == 0 {
		cfg.LibBlockSizes = bench.DefaultIORBlockSizes()
	}
	if cfg.LibTransfer == 0 {
		cfg.LibTransfer = 256 << 10
	}
	if cfg.LibFileSize == 0 {
		cfg.LibFileSize = 32 << 30
	}
	if cfg.RandomOps == 0 {
		cfg.RandomOps = 4096
	}
	if cfg.LocalFileSize == 0 {
		cfg.LocalFileSize = 2 * probe.Cfg.IONodeRAM
	}
	if cfg.GlobalFileSize == 0 {
		cfg.GlobalFileSize = 2 * probe.Cfg.NodeRAM
	}
	return cfg
}

// DefaultCharacterizeConfig mirrors the paper's setup.
func DefaultCharacterizeConfig() CharacterizeConfig {
	return CharacterizeConfig{
		FSBlockSizes: bench.DefaultBlockSizes(),
		FSModes: []bench.Mode{
			bench.SeqWrite, bench.SeqRead,
			bench.StrideWrite, bench.StrideRead,
			bench.RandWrite, bench.RandRead,
		},
		RandomOps:     4096,
		LibProcs:      8,
		LibBlockSizes: bench.DefaultIORBlockSizes(),
		LibTransfer:   256 << 10,
		LibFileSize:   32 << 30,
	}
}

// Characterization is the output of the system-characterization
// phase: one performance table per I/O-path level.
type Characterization struct {
	Config string
	Tables map[Level]*PerfTable
}

// Table returns the table of a level.
func (c *Characterization) Table(l Level) *PerfTable { return c.Tables[l] }

// characterize measures a configuration at the three I/O-path levels
// by executing the config's shard plan (charplan.go): every
// measurement unit runs on a fresh cluster — characterizing dirties
// caches, allocators and the simulated clock, so units must not share
// an instance — and the per-unit rows merge back in plan order, which
// makes the result byte-identical at any pool size. build must return
// a fresh cluster of the configuration under test on each call, and
// must be safe for concurrent use when the pool runs more than one
// worker. Reached through Session.Characterization (the exported
// surface); a nil pool means sequential.
func characterize(build func() *cluster.Cluster, cfg CharacterizeConfig, pool *CharPool) (*Characterization, error) {
	probe := build()
	cfg = cfg.withDefaults(probe)
	name := fmt.Sprintf("%s/%s", probe.Cfg.Name, probe.Cfg.Org)
	if cfg.UsePFS {
		name = fmt.Sprintf("%s/pfs-%d", probe.Cfg.Name, probe.Cfg.PFSIONodes)
	}

	units := charPlan(cfg)
	rows, err := runPlan(reuseProbe(probe, build), cfg, units, pool)
	if err != nil {
		return nil, err
	}
	return mergeUnits(name, units, rows), nil
}
