package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// A hand-assembled cluster with no nodes and no components must
// produce a guarded report, not NaNs or a divide-by-zero panic.
func TestUtilizationReportZeroNodes(t *testing.T) {
	c := &Cluster{Eng: sim.NewEngine(), Cfg: Config{Name: "empty"}}
	out := c.UtilizationReport()
	if strings.Contains(out, "NaN") {
		t.Fatalf("report contains NaN:\n%s", out)
	}
	if !strings.Contains(out, "compute-node disks (mean)") || !strings.Contains(out, "0% busy") {
		t.Fatalf("empty-cluster disk row not guarded:\n%s", out)
	}
	// The snapshot aggregation path is guarded the same way.
	if u := telemetry.MeanUtilization(nil); u != 0 {
		t.Fatalf("MeanUtilization(nil) = %v", u)
	}
}

// Every layer of a full cluster must expose a registered probe, and
// the exported report must carry their snapshots.
func TestClusterTelemetryRegistry(t *testing.T) {
	cfg := Aohyper(RAID5).Cfg
	cfg.PFSIONodes = 2
	c := New(cfg)
	if c.Telemetry.Len() == 0 {
		t.Fatal("no probes registered")
	}
	c.Eng.Spawn("app", func(p *sim.Proc) {
		h, _ := c.Nodes[0].NFS.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 32*mb)
		h.Sync(ioreq.Meta(p)) // push through the server's page cache to the disks
		h.Close(ioreq.Meta(p))

		ph, _ := c.Nodes[0].PFS.Open(ioreq.Meta(p), "/pf", fs.OWrite|fs.OCreate)
		ph.WriteAt(ioreq.Writer(p), 0, 8*mb)
		ph.Close(ioreq.Meta(p))
	})
	c.Eng.Run()

	rep := c.TelemetryReport()
	levels := map[telemetry.Level]bool{}
	names := map[string]int{}
	for _, s := range rep.Components {
		levels[s.Level] = true
		names[s.Component]++
	}
	for name, n := range names {
		if n > 1 {
			t.Fatalf("component name %q registered %d times", name, n)
		}
	}
	for _, want := range []telemetry.Level{
		telemetry.LevelLibrary, telemetry.LevelGlobalFS, telemetry.LevelLocalFS,
		telemetry.LevelCache, telemetry.LevelBlock, telemetry.LevelDevice,
		telemetry.LevelNetwork,
	} {
		if !levels[want] {
			t.Fatalf("no component at level %v; have %v", want, levels)
		}
	}

	// Data flowed through the stack: NFS server, device and network
	// levels all saw the write.
	byLevel := telemetry.ByLevel(rep.Components)
	var devBytes, netBytes int64
	for _, s := range byLevel[telemetry.LevelDevice] {
		devBytes += s.Counters.TotalBytes()
	}
	for _, s := range byLevel[telemetry.LevelNetwork] {
		netBytes += s.Counters.TotalBytes()
	}
	if devBytes == 0 || netBytes == 0 {
		t.Fatalf("stack not observed: device=%d net=%d bytes", devBytes, netBytes)
	}

	// The report encodes as valid JSON and round-trips.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var got telemetry.Report
	if err := json.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Components) != len(rep.Components) {
		t.Fatalf("roundtrip components = %d, want %d", len(got.Components), len(rep.Components))
	}
}
