package cluster

import (
	"fmt"
	"testing"

	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

const (
	mb = int64(1) << 20
	gb = int64(1) << 30
)

func TestAohyperShape(t *testing.T) {
	for _, org := range []Organization{JBOD, RAID1, RAID5} {
		c := Aohyper(org)
		if len(c.Nodes) != 8 {
			t.Fatalf("%v: %d nodes", org, len(c.Nodes))
		}
		if c.DataNet == c.CommNet {
			t.Fatalf("%v: Aohyper must have a dedicated data network", org)
		}
		wantDisks := map[Organization]int{JBOD: 1, RAID1: 2, RAID5: 5}[org]
		if len(c.IODisks) != wantDisks {
			t.Fatalf("%v: %d I/O disks, want %d", org, len(c.IODisks), wantDisks)
		}
	}
	// RAID 5 usable capacity: 4 × 230 GB = 920 GB ~ the paper's 917 GB.
	c := Aohyper(RAID5)
	if got := c.Array.Capacity(); got != 4*230*gb {
		t.Fatalf("RAID5 capacity = %d", got)
	}
}

func TestClusterAShape(t *testing.T) {
	c := ClusterA()
	if len(c.Nodes) != 32 {
		t.Fatalf("%d nodes", len(c.Nodes))
	}
	// 1.8 TB RAID 5 (4 data × 450 GB).
	if got := c.Array.Capacity(); got != 4*450*gb {
		t.Fatalf("capacity = %d", got)
	}
}

func TestEndToEndNFSTrafficFlows(t *testing.T) {
	c := Aohyper(RAID5)
	c.Eng.Spawn("app", func(p *sim.Proc) {
		h, err := c.Nodes[0].NFS.Open(ioreq.Meta(p), "/x", fs.OWrite|fs.OCreate)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		h.WriteAt(ioreq.Writer(p), 0, 64*mb)
		h.Close(ioreq.Meta(p))
		c.Nodes[0].NFS.Sync(ioreq.Meta(p))
	})
	c.Eng.Run()
	// Data must have reached the member disks, with parity overhead.
	var total int64
	for _, d := range c.IODisks {
		total += d.Telemetry().Snapshot().Counters.Write.Bytes
	}
	if total < 64*mb {
		t.Fatalf("member disks saw %d bytes, want ≥64MB", total)
	}
}

func TestLocalAndNFSAreIndependentPaths(t *testing.T) {
	c := Aohyper(JBOD)
	c.Eng.Spawn("app", func(p *sim.Proc) {
		h, _ := c.Nodes[2].Local.Open(ioreq.Meta(p), "/local", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 8*mb)
		h.Sync(ioreq.Meta(p))
		h.Close(ioreq.Meta(p))
	})
	c.Eng.Run()
	if c.Nodes[2].Disk.Telemetry().Snapshot().Counters.Write.Bytes < 8*mb {
		t.Fatal("local write did not reach the node's own disk")
	}
	if c.IODisks[0].Telemetry().Snapshot().Counters.Write.Bytes != 0 {
		t.Fatal("local write leaked to the I/O node")
	}
	if c.DataNet.Stats.Bytes != 0 {
		t.Fatal("local write used the network")
	}
}

func TestSharedNetworkConfig(t *testing.T) {
	cfg := Aohyper(JBOD).Cfg
	cfg.SeparateDataNet = false
	c := New(cfg)
	if c.DataNet != c.CommNet {
		t.Fatal("shared-network config still built two networks")
	}
}

func TestRankPlacementRoundRobin(t *testing.T) {
	c := Aohyper(RAID5)
	nodes := c.RankNodes(16)
	if len(nodes) != 16 {
		t.Fatalf("%d rank nodes", len(nodes))
	}
	for r := 0; r < 16; r++ {
		if nodes[r] != c.Nodes[r%8].Name {
			t.Fatalf("rank %d on %s, want %s", r, nodes[r], c.Nodes[r%8].Name)
		}
	}
	mounts := c.NFSMounts(16)
	if mounts[0] != fs.Interface(c.Nodes[0].NFS) || mounts[8] != fs.Interface(c.Nodes[0].NFS) {
		t.Fatal("NFS mounts not aligned with rank placement")
	}
	locals := c.LocalMounts(16)
	if locals[3] != fs.Interface(c.Nodes[3].Local) {
		t.Fatal("local mounts not aligned with rank placement")
	}
}

func TestDescribeListsFactors(t *testing.T) {
	c := Aohyper(RAID1)
	factors := c.Describe()
	if len(factors) < 6 {
		t.Fatalf("only %d factors", len(factors))
	}
	found := false
	for _, f := range factors {
		if f.Name == "device organization" && f.Value == "RAID1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("device organization factor missing: %+v", factors)
	}
}

func TestPFSDeployment(t *testing.T) {
	cfg := Aohyper(RAID5).Cfg
	cfg.PFSIONodes = 4
	c := New(cfg)
	if c.PFS == nil || len(c.PFSDisks) != 4 {
		t.Fatalf("PFS not deployed: %d disks", len(c.PFSDisks))
	}
	mounts := c.PFSMounts(8)
	c.Eng.Spawn("app", func(p *sim.Proc) {
		h, err := mounts[0].Open(ioreq.Meta(p), "/x", fs.OWrite|fs.OCreate)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		h.WriteAt(ioreq.Writer(p), 0, 16*mb)
		h.Sync(ioreq.Meta(p))
		h.Close(ioreq.Meta(p))
	})
	c.Eng.Run()
	var total int64
	for _, d := range c.PFSDisks {
		total += d.Telemetry().Snapshot().Counters.Write.Bytes
	}
	if total < 16*mb {
		t.Fatalf("PFS disks saw %d bytes", total)
	}
	// The describe output must surface the new factor.
	found := false
	for _, f := range c.Describe() {
		if f.Name == "global filesystem" && len(f.Value) > len("NFS (1 I/O node, shared access)") {
			found = true
		}
	}
	if !found {
		t.Fatal("PFS deployment not reflected in configuration analysis")
	}
}

func TestPFSMountsWithoutDeploymentPanics(t *testing.T) {
	c := Aohyper(RAID5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.PFSMounts(4)
}

func TestConcurrentNodesShareServer(t *testing.T) {
	c := Aohyper(RAID5)
	for i := 0; i < 4; i++ {
		i := i
		c.Eng.Spawn(fmt.Sprintf("w%d", i), func(p *sim.Proc) {
			h, _ := c.Nodes[i].NFS.Open(ioreq.Meta(p), fmt.Sprintf("/f%d", i), fs.OWrite|fs.OCreate)
			h.WriteAt(ioreq.Writer(p), 0, 32*mb)
			h.Close(ioreq.Meta(p))
		})
	}
	end := c.Eng.Run()
	// 128 MB through one GigE server NIC ⇒ at least ~1.09 s.
	if end < sim.Time(sim.Second) {
		t.Fatalf("shared-server writes finished at %v, too fast", sim.Duration(end))
	}
}
