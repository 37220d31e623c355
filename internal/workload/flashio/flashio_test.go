package flashio

import (
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/mpiio"
	"ioeval/internal/trace"
)

func TestDefaults(t *testing.T) {
	a := New(Config{Procs: 16})
	// 80 blocks × 512 cells × 8 B = 320 KiB per variable per proc.
	if got := a.VarBytesPerProc(); got != 80*512*8 {
		t.Fatalf("var bytes = %d", got)
	}
	if got := a.PlotVarBytesPerProc(); got != 80*512*4 {
		t.Fatalf("plot var bytes = %d", got)
	}
	// Checkpoint: 24 vars × 16 procs × 320 KiB = 120 MiB.
	if got := a.CheckpointBytes(); got != 24*16*80*512*8 {
		t.Fatalf("checkpoint bytes = %d", got)
	}
}

func TestRunStructure(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	tr := trace.New()
	a := New(Config{Procs: 4})
	res, err := a.Run(c, tr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	p := tr.Profile()
	// Per rank: 24 checkpoint + 2×4 plotfile collectives = 32; ×4 ranks.
	if p.NumWrites != 4*32 {
		t.Fatalf("writes = %d, want 128", p.NumWrites)
	}
	if p.NumReads != 0 {
		t.Fatalf("reads = %d, want 0 (write-only benchmark)", p.NumReads)
	}
	if p.NumFiles != 3 {
		t.Fatalf("files = %d, want 3 (checkpoint + 2 plotfiles)", p.NumFiles)
	}
	if p.BytesWritten != res.BytesWritten {
		t.Fatalf("trace bytes %d vs result %d", p.BytesWritten, res.BytesWritten)
	}
	if res.IOTime <= 0 || res.IOTime > res.ExecTime {
		t.Fatalf("times: %+v", res)
	}
}

func TestCollectiveWritesAreSequentialAtServer(t *testing.T) {
	// The aggregated datasets must reach the server as large writes,
	// not per-block scatter: server write RPC count stays small.
	c := cluster.Aohyper(cluster.RAID5)
	a := New(Config{Procs: 8})
	if _, err := a.Run(c, nil); err != nil {
		t.Fatalf("run: %v", err)
	}
	total := a.CheckpointBytes() + 2*a.PlotVarBytesPerProc()*4*8
	if got := c.Server.Telemetry().Snapshot().Counters.Write.Bytes; got != total {
		t.Fatalf("server bytes = %d, want %d", got, total)
	}
	// With two-phase aggregation, ops per dataset ≈ aggregators, not
	// procs × blocks.
	if got := c.Server.Telemetry().Snapshot().Counters.Write.Ops; got > 3000 {
		t.Fatalf("write RPCs = %d, aggregation not effective", got)
	}
}

func TestPhasesDetectedPerVariable(t *testing.T) {
	c := cluster.Aohyper(cluster.RAID5)
	tr := trace.New()
	a := New(Config{Procs: 4, Compute: 1e9})
	if _, err := a.Run(c, tr); err != nil {
		t.Fatalf("run: %v", err)
	}
	var writes int64
	for _, ph := range tr.Phases(0) {
		if ph.Kind == mpiio.OpWrite {
			writes += ph.Ops
		}
	}
	if writes != 32 {
		t.Fatalf("rank 0 write ops across phases = %d, want 32", writes)
	}
}
