package experiments

import (
	"fmt"
	"strings"

	"ioeval/internal/cluster"
	"ioeval/internal/core"
	"ioeval/internal/stats"
	"ioeval/internal/trace"
	"ioeval/internal/workload/btio"
)

// Table2 regenerates Table II: NAS BT-IO characterization, class C,
// 16 processes, full and simple subtypes (from the traced runs on
// Aohyper RAID 5).
func Table2() Artifact {
	return btioCharacterization("tab2", 16, Aohyper, cluster.RAID5,
		"NAS BT-IO characterization — class C, 16 processes")
}

// Table5 regenerates Table V: the same characterization with 64
// processes (run on Cluster A, which has 32 nodes).
func Table5() Artifact {
	return btioCharacterization("tab5", 64, ClusterA, cluster.RAID5,
		"NAS BT-IO characterization — class C, 64 processes")
}

func btioCharacterization(id string, procs int, pl Platform, org cluster.Organization, title string) Artifact {
	var b strings.Builder
	for _, st := range []btio.Subtype{btio.Full, btio.Simple} {
		ev := EvalBTIO(pl, org, procs, st)
		fmt.Fprintf(&b, "[%s subtype]\n%s\n", st, core.FormatProfile(ev.AppName(), ev.Profile()))
	}
	return Artifact{ID: id, Title: title, Text: b.String()}
}

// Fig8 regenerates Fig. 8: BT-IO trace timelines for 16 processes,
// full and simple subtypes.
func Fig8() Artifact {
	var b strings.Builder
	for _, st := range []btio.Subtype{btio.Full, btio.Simple} {
		ev := EvalBTIO(Aohyper, cluster.RAID5, 16, st)
		fmt.Fprintf(&b, "[%s subtype]\n%s\n", st, trace.Timeline{Width: 100}.Render(ev.Trace().Events()))
	}
	return Artifact{ID: "fig8", Title: "NAS BT-IO traces, 16 processes (W write, R read, C compute, M comm)", Text: b.String()}
}

// UsedPctRow is one row of a used-percentage artifact.
type UsedPctRow struct {
	Config  string
	Subtype string
	IOLib   float64
	NFS     float64
	LocalFS float64
}

// btioUsedRows computes used percentages for BT-IO on a set of
// configurations.
func btioUsedRows(pl Platform, procsList []int, op core.OpType) []UsedPctRow {
	var rows []UsedPctRow
	for _, org := range pl.orgs() {
		for _, procs := range procsList {
			for _, st := range []btio.Subtype{btio.Full, btio.Simple} {
				ev := EvalBTIO(pl, org, procs, st)
				label := org.String()
				if len(procsList) > 1 {
					label = fmt.Sprintf("%d procs", procs)
				}
				rows = append(rows, UsedPctRow{
					Config:  label,
					Subtype: strings.ToUpper(st.String()),
					IOLib:   ev.UsedFor(core.LevelIOLib, op),
					NFS:     ev.UsedFor(core.LevelNFS, op),
					LocalFS: ev.UsedFor(core.LevelLocalFS, op),
				})
			}
		}
	}
	return rows
}

func usedArtifact(id, title string, rows []UsedPctRow) Artifact {
	var tb stats.Table
	tb.AddRow("I/O configuration", "I/O Lib", "NFS", "Local FS", "SUBTYPE")
	for _, r := range rows {
		tb.AddRow(r.Config, pct(r.IOLib), pct(r.NFS), pct(r.LocalFS), r.Subtype)
	}
	return Artifact{ID: id, Title: title, Text: tb.String()}
}

func pct(v float64) string {
	if v < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f", v)
}

// Table3 regenerates Table III: % of I/O system use for BT-IO writes
// on Aohyper's three configurations.
func Table3() Artifact {
	return usedArtifact("tab3", "% of I/O system use — NAS BT-IO, writing operations, Aohyper",
		btioUsedRows(Aohyper, []int{16}, core.Write))
}

// Table4 regenerates Table IV: the reading-operations counterpart.
func Table4() Artifact {
	return usedArtifact("tab4", "% of I/O system use — NAS BT-IO, reading operations, Aohyper",
		btioUsedRows(Aohyper, []int{16}, core.Read))
}

// Table6 regenerates Table VI (Cluster A, writes, 16 & 64 procs).
func Table6() Artifact {
	return usedArtifact("tab6", "% of I/O system use — NAS BT-IO, writing operations, cluster A",
		btioUsedRows(ClusterA, []int{16, 64}, core.Write))
}

// Table7 regenerates Table VII (Cluster A, reads).
func Table7() Artifact {
	return usedArtifact("tab7", "% of I/O system use — NAS BT-IO, reading operations, cluster A",
		btioUsedRows(ClusterA, []int{16, 64}, core.Read))
}

// RunFig is the data of an execution-time figure (Figs. 12 and 15).
type RunFig struct {
	Label     string
	Subtype   string
	ExecSec   float64
	IOSec     float64
	ThruMBs   float64
	IOPctExec float64
}

func btioRunFig(pl Platform, procsList []int) []RunFig {
	var out []RunFig
	for _, org := range pl.orgs() {
		for _, procs := range procsList {
			for _, st := range []btio.Subtype{btio.Full, btio.Simple} {
				ev := EvalBTIO(pl, org, procs, st)
				label := org.String()
				if len(procsList) > 1 {
					label = fmt.Sprintf("%d procs", procs)
				}
				res := ev.Result()
				out = append(out, RunFig{
					Label:     label,
					Subtype:   strings.ToUpper(st.String()),
					ExecSec:   res.ExecTime.Seconds(),
					IOSec:     res.IOTime.Seconds(),
					ThruMBs:   res.Throughput() / 1e6,
					IOPctExec: 100 * float64(res.IOTime) / float64(res.ExecTime),
				})
			}
		}
	}
	return out
}

func runFigArtifact(id, title string, rows []RunFig) Artifact {
	var tb stats.Table
	tb.AddRow("config", "subtype", "exec time", "I/O time", "I/O % of exec", "throughput")
	for _, r := range rows {
		tb.AddRow(r.Label, r.Subtype,
			fmt.Sprintf("%.1f s", r.ExecSec), fmt.Sprintf("%.1f s", r.IOSec),
			fmt.Sprintf("%.1f%%", r.IOPctExec), fmt.Sprintf("%.1f MB/s", r.ThruMBs))
	}
	return Artifact{ID: id, Title: title, Text: tb.String()}
}

// Fig12Data returns the Fig. 12 rows.
func Fig12Data() []RunFig { return btioRunFig(Aohyper, []int{16}) }

// Fig12 regenerates Fig. 12: BT-IO class C, 16 processes — execution
// time, I/O time and throughput on Aohyper's three configurations.
func Fig12() Artifact {
	return runFigArtifact("fig12", "NAS BT-IO class C, 16 processes, Aohyper", Fig12Data())
}

// Fig15Data returns the Fig. 15 rows.
func Fig15Data() []RunFig { return btioRunFig(ClusterA, []int{16, 64}) }

// Fig15 regenerates Fig. 15: BT-IO on cluster A, 16 and 64 processes.
func Fig15() Artifact {
	return runFigArtifact("fig15", "NAS BT-IO class C, 16 & 64 processes, cluster A", Fig15Data())
}
