// Package bench implements the characterization benchmarks the
// methodology drives against the simulated cluster: an IOzone-like
// filesystem/block-level sweep, an IOR-like MPI-IO library-level
// sweep, and a bonnie++-like metadata exerciser. Their results feed
// the performance tables of the methodology's characterization phase
// (core package).
package bench

import (
	"fmt"
	"math/rand"

	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// Mode is an IOzone access mode.
type Mode int

// IOzone test modes.
const (
	SeqWrite Mode = iota
	SeqRead
	RandWrite
	RandRead
	StrideWrite
	StrideRead
)

func (m Mode) String() string {
	switch m {
	case SeqWrite:
		return "seq-write"
	case SeqRead:
		return "seq-read"
	case RandWrite:
		return "rand-write"
	case RandRead:
		return "rand-read"
	case StrideWrite:
		return "stride-write"
	case StrideRead:
		return "stride-read"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// IsWrite reports whether the mode writes.
func (m Mode) IsWrite() bool { return m == SeqWrite || m == RandWrite || m == StrideWrite }

// IsSequential reports whether the mode accesses back-to-back blocks.
func (m Mode) IsSequential() bool { return m == SeqWrite || m == SeqRead }

// IsStrided reports whether the mode uses a constant non-unit stride
// (IOzone -j: the access touches every other block).
func (m Mode) IsStrided() bool { return m == StrideWrite || m == StrideRead }

// IOzoneConfig parameterizes a sweep. The paper's rule: FileSize is
// twice the node's RAM so the page cache cannot satisfy the run, and
// the block size sweeps 32 KB – 16 MB.
type IOzoneConfig struct {
	Path       string
	FileSize   int64
	BlockSizes []int64
	Modes      []Mode
	// RandomOps caps the operation count of random modes (IOzone
	// touches the whole file; for huge files that is slow to no
	// benefit — the per-op cost converges quickly). 0 = whole file.
	RandomOps int
	// BetweenRuns, when set, is invoked before each measurement —
	// the hook the methodology uses to drop caches for cold runs.
	BetweenRuns func(p *sim.Proc)
	// Seed for the random-mode offset sequence. Each measurement
	// shuffles with its own source seeded from Seed, the block size
	// and the mode, so sweeps are reproducible.
	Seed int64
}

// DefaultBlockSizes is the paper's 32 KB … 16 MB sweep.
func DefaultBlockSizes() []int64 { return BlockSizes(32<<10, 16<<20) }

// BlockSizes is the doubling sweep lo, 2·lo, 4·lo, … up to hi bytes.
// It is empty unless 0 < lo <= hi, and it stops before a doubling
// would pass hi, so no hi up to math.MaxInt64 can overflow it.
func BlockSizes(lo, hi int64) []int64 {
	var out []int64
	for bs := lo; bs > 0 && bs <= hi; bs *= 2 {
		out = append(out, bs)
		if bs > hi/2 {
			break
		}
	}
	return out
}

// IOzoneResult is one measurement point.
type IOzoneResult struct {
	Mode      Mode
	BlockSize int64
	Rate      float64      // bytes/second
	IOPS      float64      // operations/second
	Latency   sim.Duration // mean per-operation latency
	Ops       int64
}

// RunIOzone runs the sweep against one mounted filesystem. The
// engine must be otherwise idle; measurements run back to back in
// simulated time.
func RunIOzone(eng *sim.Engine, fsi fs.Interface, cfg IOzoneConfig) ([]IOzoneResult, error) {
	if len(cfg.BlockSizes) == 0 {
		cfg.BlockSizes = DefaultBlockSizes()
	}
	for _, bs := range cfg.BlockSizes {
		if err := checkIOzone(cfg, bs); err != nil {
			return nil, err
		}
	}
	var results []IOzoneResult
	for _, bs := range cfg.BlockSizes {
		rs, err := RunIOzoneBlock(eng, fsi, cfg, bs)
		if err != nil {
			return nil, err
		}
		results = append(results, rs...)
	}
	return results, nil
}

// RunIOzoneBlock runs every configured mode at a single block size —
// the per-unit entry point of the characterization shard plan (see
// internal/core): modes run in configuration order, so a write mode
// populates the file the paired read mode consumes, and a block's
// measurements are self-contained on a freshly built cluster (read-
// only mode lists fill the file untimed first). The engine must be
// otherwise idle.
func RunIOzoneBlock(eng *sim.Engine, fsi fs.Interface, cfg IOzoneConfig, bs int64) ([]IOzoneResult, error) {
	if cfg.Path == "" {
		cfg.Path = "/iozone.tmp"
	}
	if err := checkIOzone(cfg, bs); err != nil {
		return nil, err
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []Mode{SeqWrite, SeqRead}
	}
	var results []IOzoneResult
	var runErr error
	for _, mode := range cfg.Modes {
		mode := mode
		eng.Spawn(fmt.Sprintf("iozone-%v-%d", mode, bs), func(p *sim.Proc) {
			if cfg.BetweenRuns != nil {
				cfg.BetweenRuns(p)
			}
			res, err := iozoneOnce(p, fsi, cfg, mode, bs)
			if err != nil {
				runErr = err
				return
			}
			results = append(results, res)
		})
		eng.Run()
		if runErr != nil {
			return nil, runErr
		}
	}
	return results, nil
}

// checkIOzone rejects a sweep point IOzone cannot run.
func checkIOzone(cfg IOzoneConfig, bs int64) error {
	if cfg.FileSize <= 0 {
		return fmt.Errorf("bench: IOzone needs a positive file size, got %d", cfg.FileSize)
	}
	if bs <= 0 {
		return fmt.Errorf("bench: IOzone needs a positive block size, got %d", bs)
	}
	if bs > cfg.FileSize {
		// It would move no whole block: a row of 0 ops at rate 0.
		return fmt.Errorf("bench: IOzone block size %d exceeds the file size %d", bs, cfg.FileSize)
	}
	return nil
}

func iozoneOnce(p *sim.Proc, fsi fs.Interface, cfg IOzoneConfig, mode Mode, bs int64) (IOzoneResult, error) {
	flags := fs.ORead | fs.OWrite | fs.OCreate
	if mode == SeqWrite {
		flags |= fs.OTrunc
	}
	mt := ioreq.Meta(p)
	h, err := fsi.Open(mt, cfg.Path, flags)
	if err != nil {
		return IOzoneResult{}, err
	}
	defer h.Close(mt)

	// Reads and random modes need the file populated; write it
	// untimed if the previous mode has not already.
	if mode != SeqWrite && h.Size() < cfg.FileSize {
		fill := ioreq.Writer(p)
		for off := h.Size(); off < cfg.FileSize; off += 8 << 20 {
			n := min(8<<20, cfg.FileSize-off)
			h.WriteAt(fill, off, n)
		}
		h.Sync(fill)
		if cfg.BetweenRuns != nil {
			cfg.BetweenRuns(p) // cold cache for the timed pass
		}
	}

	nOps := cfg.FileSize / bs
	offsets := make([]int64, 0, nOps)
	switch {
	case mode.IsStrided():
		// IOzone -j 2: touch every other block.
		for off := int64(0); off+bs <= cfg.FileSize; off += 2 * bs {
			offsets = append(offsets, off)
		}
	default:
		for off := int64(0); off+bs <= cfg.FileSize; off += bs {
			offsets = append(offsets, off)
		}
	}
	if !mode.IsSequential() && !mode.IsStrided() {
		rng := rand.New(rand.NewSource(cfg.Seed + bs + int64(mode)))
		rng.Shuffle(len(offsets), func(i, j int) { offsets[i], offsets[j] = offsets[j], offsets[i] })
		if cfg.RandomOps > 0 && len(offsets) > cfg.RandomOps {
			offsets = offsets[:cfg.RandomOps]
		}
	}

	// Operations are issued through the vectored interface in batches:
	// per-operation costs are charged identically to a syscall loop,
	// but the simulation stays event-efficient for large sweeps.
	const batch = 64
	class := telemetry.ClassRead
	if mode.IsWrite() {
		class = telemetry.ClassWrite
	}
	r := ioreq.New(p, class)
	t0 := p.Now()
	var moved int64
	for i := 0; i < len(offsets); i += batch {
		end := i + batch
		if end > len(offsets) {
			end = len(offsets)
		}
		vecs := make([]fs.IOVec, 0, end-i)
		for _, off := range offsets[i:end] {
			vecs = append(vecs, fs.IOVec{Off: off, Len: bs})
		}
		if mode.IsWrite() {
			moved += h.WriteVec(r, vecs)
		} else {
			moved += h.ReadVec(r, vecs)
		}
	}
	if mode.IsWrite() {
		h.Sync(r) // IOzone -e: include fsync in the timing
	}
	elapsed := sim.Duration(p.Now() - t0)

	ops := int64(len(offsets))
	res := IOzoneResult{Mode: mode, BlockSize: bs, Ops: ops}
	if s := elapsed.Seconds(); s > 0 {
		res.Rate = float64(moved) / s
		res.IOPS = float64(ops) / s
	}
	if ops > 0 {
		res.Latency = elapsed / sim.Duration(ops)
	}
	return res, nil
}
