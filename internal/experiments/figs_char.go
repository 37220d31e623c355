package experiments

import (
	"fmt"

	"ioeval/internal/bench"
	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/stats"
	"ioeval/internal/trace"
)

// Fig5Point is one curve point of the filesystem characterization.
type Fig5Point struct {
	Org       cluster.Organization
	Level     core.Level // LevelLocalFS or LevelNFS
	Mode      bench.Mode
	BlockSize int64
	RateMBs   float64
}

// Fig5Data returns the characterization points behind Fig. 5
// (Aohyper, local & network filesystem, JBOD/RAID1/RAID5), extracted
// from the memoized characterization tables.
func Fig5Data() []Fig5Point { return fig5For(Aohyper) }

// fig5For extracts a platform's sequential filesystem curves.
func fig5For(pl Platform) []Fig5Point {
	var pts []Fig5Point
	for _, org := range pl.orgs() {
		ch := Characterization(pl, org)
		for _, level := range []core.Level{core.LevelLocalFS, core.LevelNFS} {
			for _, row := range ch.Table(level).Rows {
				if row.Mode != trace.Sequential {
					continue // Fig. 5 plots the sequential curves
				}
				mode := bench.SeqRead
				if row.Op == core.Write {
					mode = bench.SeqWrite
				}
				pts = append(pts, Fig5Point{Org: org, Level: level, Mode: mode,
					BlockSize: row.BlockSize, RateMBs: row.Rate / 1e6})
			}
		}
	}
	return pts
}

// Fig5 regenerates Fig. 5: local and network filesystem
// characterization of the cluster Aohyper on its three device
// configurations.
func Fig5() Artifact {
	return charFigure("fig5",
		"Local & network filesystem characterization, cluster Aohyper (IOzone, file = 2×RAM)",
		Fig5Data())
}

// Fig13 regenerates Fig. 13 (same sweep on Cluster A).
func Fig13() Artifact {
	return charFigure("fig13",
		"Local & network filesystem characterization, cluster A (IOzone)", fig5For(ClusterA))
}

func charFigure(id, title string, pts []Fig5Point) Artifact {
	var tb stats.Table
	tb.AddRow("config", "level", "mode", "block", "rate")
	for _, p := range pts {
		tb.AddRow(p.Org.String(), p.Level.String(), p.Mode.String(),
			stats.IBytes(p.BlockSize), fmt.Sprintf("%.1f MB/s", p.RateMBs))
	}
	return Artifact{ID: id, Title: title, Text: tb.String()}
}

// Fig6Point is one library-level characterization point.
type Fig6Point struct {
	Org       cluster.Organization
	BlockSize int64
	WriteMBs  float64
	ReadMBs   float64
}

// fig6For extracts the library-level table of a platform as points.
func fig6For(pl Platform) []Fig6Point {
	var pts []Fig6Point
	for _, org := range pl.orgs() {
		ch := Characterization(pl, org)
		byBS := map[int64]*Fig6Point{}
		var order []int64
		for _, row := range ch.Table(core.LevelIOLib).Rows {
			pt, ok := byBS[row.BlockSize]
			if !ok {
				pt = &Fig6Point{Org: org, BlockSize: row.BlockSize}
				byBS[row.BlockSize] = pt
				order = append(order, row.BlockSize)
			}
			if row.Op == core.Write {
				pt.WriteMBs = row.Rate / 1e6
			} else {
				pt.ReadMBs = row.Rate / 1e6
			}
		}
		for _, bs := range order {
			pts = append(pts, *byBS[bs])
		}
	}
	return pts
}

// Fig6Data returns the Aohyper library-level points.
func Fig6Data() []Fig6Point { return fig6For(Aohyper) }

// Fig6 regenerates Fig. 6: I/O library characterization on Aohyper
// (IOR, 8 processes, 256 KB transfers).
func Fig6() Artifact {
	return libFigure("fig6", "I/O library characterization, cluster Aohyper (IOR, 8 procs)", Fig6Data())
}

// Fig14 regenerates Fig. 14 (library level on Cluster A).
func Fig14() Artifact {
	return libFigure("fig14", "I/O library characterization, cluster A (IOR, 8 procs)", fig6For(ClusterA))
}

func libFigure(id, title string, pts []Fig6Point) Artifact {
	var tb stats.Table
	tb.AddRow("config", "block", "write", "read")
	for _, p := range pts {
		tb.AddRow(p.Org.String(), stats.IBytes(p.BlockSize),
			fmt.Sprintf("%.1f MB/s", p.WriteMBs), fmt.Sprintf("%.1f MB/s", p.ReadMBs))
	}
	return Artifact{ID: id, Title: title, Text: tb.String()}
}
