package bench

import (
	"fmt"

	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

// BonnieConfig parameterizes the bonnie++-like run: block I/O rates
// plus metadata (create/stat/delete) throughput, the second tool the
// paper lists for global/local filesystem characterization.
type BonnieConfig struct {
	Dir      string
	FileSize int64
	// MetaFiles is the number of small files created, stated and
	// deleted in the metadata pass.
	MetaFiles int
}

// BonnieResult holds the aggregate rates.
type BonnieResult struct {
	BlockWrite  float64 // bytes/second
	BlockRead   float64
	Rewrite     float64
	CreatesPerS float64
	StatsPerS   float64
	DeletesPerS float64
}

// RunBonnie measures the filesystem with a bonnie++-like pass.
func RunBonnie(eng *sim.Engine, fsi fs.Interface, cfg BonnieConfig) (BonnieResult, error) {
	if cfg.Dir == "" {
		cfg.Dir = "/bonnie"
	}
	if cfg.FileSize <= 0 {
		return BonnieResult{}, fmt.Errorf("bench: bonnie needs a positive file size, got %d", cfg.FileSize)
	}
	if cfg.MetaFiles <= 0 {
		cfg.MetaFiles = 1024
	}
	var res BonnieResult
	var runErr error
	eng.Spawn("bonnie", func(p *sim.Proc) {
		const chunk = 1 << 20
		wr := ioreq.Writer(p)
		rd := ioreq.Reader(p)
		mt := ioreq.Meta(p)
		path := cfg.Dir + "/big"
		h, err := fsi.Open(mt, path, fs.ORead|fs.OWrite|fs.OCreate|fs.OTrunc)
		if err != nil {
			runErr = err
			return
		}

		timeIt := func(fn func()) float64 {
			t0 := p.Now()
			fn()
			return sim.Duration(p.Now() - t0).Seconds()
		}

		d := timeIt(func() {
			for off := int64(0); off < cfg.FileSize; off += chunk {
				h.WriteAt(wr, off, min(chunk, cfg.FileSize-off))
			}
			h.Sync(wr)
		})
		res.BlockWrite = float64(cfg.FileSize) / d

		d = timeIt(func() {
			for off := int64(0); off < cfg.FileSize; off += chunk {
				h.ReadAt(rd, off, min(chunk, cfg.FileSize-off))
			}
		})
		res.BlockRead = float64(cfg.FileSize) / d

		// Rewrite: read + write back each chunk.
		d = timeIt(func() {
			for off := int64(0); off < cfg.FileSize; off += chunk {
				n := min(chunk, cfg.FileSize-off)
				h.ReadAt(rd, off, n)
				h.WriteAt(wr, off, n)
			}
			h.Sync(wr)
		})
		res.Rewrite = float64(cfg.FileSize) / d
		h.Close(mt)

		names := make([]string, cfg.MetaFiles)
		for i := range names {
			names[i] = fmt.Sprintf("%s/f%06d", cfg.Dir, i)
		}
		d = timeIt(func() {
			for _, name := range names {
				hh, err := fsi.Open(mt, name, fs.OWrite|fs.OCreate)
				if err != nil {
					runErr = err
					return
				}
				hh.Close(mt)
			}
		})
		res.CreatesPerS = float64(cfg.MetaFiles) / d

		d = timeIt(func() {
			for _, name := range names {
				if _, err := fsi.Stat(mt, name); err != nil {
					runErr = err
					return
				}
			}
		})
		res.StatsPerS = float64(cfg.MetaFiles) / d

		d = timeIt(func() {
			for _, name := range names {
				if err := fsi.Remove(mt, name); err != nil {
					runErr = err
					return
				}
			}
		})
		res.DeletesPerS = float64(cfg.MetaFiles) / d
	})
	eng.Run()
	return res, runErr
}
