package experiments

import (
	"fmt"
	"strings"

	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/stats"
	"ioeval/internal/trace"
	"ioeval/internal/workload/madbench"
)

var madFileTypes = []madbench.FileType{madbench.Unique, madbench.Shared}

// Table8 regenerates Table VIII: MADbench2 characterization for 16
// and 64 processes, UNIQUE and SHARED filetypes (profiles from the
// Cluster A runs).
func Table8() Artifact {
	var b strings.Builder
	for _, procs := range []int{16, 64} {
		for _, ft := range madFileTypes {
			ev := EvalMadBench(ClusterA, cluster.RAID5, procs, ft)
			fmt.Fprintf(&b, "[%d procs, %v]\n%s\n", procs, ft,
				core.FormatProfile(ev.AppName(), ev.Profile()))
		}
	}
	return Artifact{ID: "tab8", Title: "MADbench2 characterization — 16 & 64 processes", Text: b.String()}
}

// Fig16 regenerates Fig. 16: MADbench2 trace timeline, 16 processes.
func Fig16() Artifact {
	var b strings.Builder
	for _, ft := range madFileTypes {
		ev := EvalMadBench(Aohyper, cluster.RAID5, 16, ft)
		fmt.Fprintf(&b, "[%v filetype]\n%s\n", ft, trace.Timeline{Width: 100}.Render(ev.Trace().Events()))
	}
	return Artifact{ID: "fig16", Title: "MADbench2 traces, 16 processes (W write, R read, C busy-work)", Text: b.String()}
}

// MadRunRow is a MADbench2 result row (Figs. 17 and 18): times and
// per-function transfer rates.
type MadRunRow struct {
	Config   string
	FileType string
	ExecSec  float64
	IOSec    float64
	SwMBs    float64
	WwMBs    float64
	WrMBs    float64
	CrMBs    float64
}

func madRunRows(pl Platform, procsList []int) []MadRunRow {
	var rows []MadRunRow
	for _, org := range pl.orgs() {
		for _, procs := range procsList {
			for _, ft := range madFileTypes {
				ev := EvalMadBench(pl, org, procs, ft)
				label := org.String()
				if len(procsList) > 1 {
					label = fmt.Sprintf("%d procs", procs)
				}
				res := ev.Result()
				rows = append(rows, MadRunRow{
					Config:   label,
					FileType: ft.String(),
					ExecSec:  res.ExecTime.Seconds(),
					IOSec:    res.IOTime.Seconds(),
					SwMBs:    res.PhaseRates["S_w"] / 1e6,
					WwMBs:    res.PhaseRates["W_w"] / 1e6,
					WrMBs:    res.PhaseRates["W_r"] / 1e6,
					CrMBs:    res.PhaseRates["C_r"] / 1e6,
				})
			}
		}
	}
	return rows
}

func madRunArtifact(id, title string, rows []MadRunRow) Artifact {
	var tb stats.Table
	tb.AddRow("config", "filetype", "exec", "I/O time", "S_w", "W_w", "W_r", "C_r")
	for _, r := range rows {
		tb.AddRow(r.Config, r.FileType,
			fmt.Sprintf("%.1f s", r.ExecSec), fmt.Sprintf("%.1f s", r.IOSec),
			fmt.Sprintf("%.1f MB/s", r.SwMBs), fmt.Sprintf("%.1f MB/s", r.WwMBs),
			fmt.Sprintf("%.1f MB/s", r.WrMBs), fmt.Sprintf("%.1f MB/s", r.CrMBs))
	}
	return Artifact{ID: id, Title: title, Text: tb.String()}
}

// Fig17Data returns the Aohyper MADbench2 rows.
func Fig17Data() []MadRunRow { return madRunRows(Aohyper, []int{16}) }

// Fig17 regenerates Fig. 17: MADbench2 times and transfer rates on
// the cluster Aohyper (16 processes, UNIQUE and SHARED).
func Fig17() Artifact {
	return madRunArtifact("fig17", "MADbench2 on Aohyper, 16 processes", Fig17Data())
}

// Fig18Data returns the Cluster A MADbench2 rows.
func Fig18Data() []MadRunRow { return madRunRows(ClusterA, []int{16, 64}) }

// Fig18 regenerates Fig. 18: MADbench2 on cluster A, 16 & 64
// processes.
func Fig18() Artifact {
	return madRunArtifact("fig18", "MADbench2 on cluster A, 16 & 64 processes", Fig18Data())
}

// MadUsedRow is one row of the MADbench2 used-percentage tables
// (IX, X, XI): per-function used % of one I/O-path level.
type MadUsedRow struct {
	Config   string
	FileType string
	Wr       float64
	Cr       float64
	Sw       float64
	Ww       float64
}

// madUsedRows computes per-function used percentages against one
// level's characterized table. Each MADbench2 function moves
// SliceBytes blocks sequentially, so the lookup uses the profile's
// dominant block size with sequential mode.
func madUsedRows(pl Platform, procsList []int, level core.Level) []MadUsedRow {
	var rows []MadUsedRow
	for _, org := range pl.orgs() {
		for _, procs := range procsList {
			for _, ft := range madFileTypes {
				ev := EvalMadBench(pl, org, procs, ft)
				ch := Characterization(pl, org)
				label := org.String()
				if len(procsList) > 1 {
					label = fmt.Sprintf("%d procs", procs)
				}
				bs := int64(0)
				if p := ev.Profile(); len(p.WriteBlockSizes) > 0 {
					bs = p.WriteBlockSizes[0].Bytes
				}
				access := core.Global
				if level == core.LevelLocalFS {
					access = core.Local
				}
				usedOf := func(op core.OpType, measured float64) float64 {
					rate, _, ok := ch.Table(level).Lookup(op, bs, access, trace.Sequential)
					if !ok || rate <= 0 {
						return -1
					}
					return measured / rate * 100
				}
				pr := ev.Result().PhaseRates
				rows = append(rows, MadUsedRow{
					Config:   label,
					FileType: ft.String(),
					Wr:       usedOf(core.Read, pr["W_r"]),
					Cr:       usedOf(core.Read, pr["C_r"]),
					Sw:       usedOf(core.Write, pr["S_w"]),
					Ww:       usedOf(core.Write, pr["W_w"]),
				})
			}
		}
	}
	return rows
}

func madUsedArtifact(id, title string, rows []MadUsedRow) Artifact {
	var tb stats.Table
	tb.AddRow("I/O configuration", "W_r", "C_r", "S_w", "W_w", "FILETYPE")
	for _, r := range rows {
		tb.AddRow(r.Config, pct(r.Wr), pct(r.Cr), pct(r.Sw), pct(r.Ww), r.FileType)
	}
	return Artifact{ID: id, Title: title, Text: tb.String()}
}

// Table9Data returns the Table IX rows.
func Table9Data() []MadUsedRow { return madUsedRows(Aohyper, []int{16}, core.LevelLocalFS) }

// Table9 regenerates Table IX: % of use for MADbench2 on the local
// filesystem level, Aohyper.
func Table9() Artifact {
	return madUsedArtifact("tab9", "% of use — MADbench2 on local filesystem, Aohyper", Table9Data())
}

// Table10 regenerates Table X: % of use at network-filesystem level,
// cluster A.
func Table10() Artifact {
	return madUsedArtifact("tab10", "% of use — MADbench2 on network filesystem, cluster A",
		madUsedRows(ClusterA, []int{16, 64}, core.LevelNFS))
}

// Table11 regenerates Table XI: % of use at local-filesystem level,
// cluster A.
func Table11() Artifact {
	return madUsedArtifact("tab11", "% of use — MADbench2 on local filesystem, cluster A",
		madUsedRows(ClusterA, []int{16, 64}, core.LevelLocalFS))
}
