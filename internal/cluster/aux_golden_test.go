package cluster_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ioeval/internal/cluster"
	"ioeval/internal/fault"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/mpiio"
	"ioeval/internal/nfs"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

var updateAux = flag.Bool("update", false, "rewrite the aux counter golden under testdata/")

const auxGolden = "testdata/aux.sha256"

const mib = int64(1) << 20

// smallCluster is a two-node RAID 5 cluster with little RAM, so that
// every page cache on it evicts within a few hundred MiB of traffic.
func smallCluster(name string) *cluster.Cluster {
	return cluster.New(cluster.Config{
		Name:            name,
		ComputeNodes:    2,
		NodeRAM:         32 * mib,
		NodeDiskCap:     4 << 30,
		NodeDiskRate:    90e6,
		IONodeRAM:       64 * mib,
		IODiskCap:       4 << 30,
		IODiskRate:      100e6,
		Org:             cluster.RAID5,
		SeparateDataNet: true,
		NFSServer:       nfs.DefaultServerParams(name + "-nfs"),
		NFSClient:       nfs.DefaultClientParams(name + "-nfs"),
	})
}

// iozoneRun drives node 0's local filesystem the way an IOzone cache
// run does: a dirty file pushed out by a clean read (dirty eviction
// and write-back), a sequential write past the dirty ratio (throttle
// stalls), random block reads, a vectored re-read and a full re-read.
// Node 1 only reads cold, so its cache adds hit_bytes as 0.
func iozoneRun(c *cluster.Cluster) {
	fsys := c.Nodes[0].Local
	c.Eng.Spawn("cold", func(p *sim.Proc) {
		n := c.Nodes[1]
		h, _ := n.Local.Open(ioreq.Meta(p), "/cold", fs.ORead|fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, mib)
		n.Cache.DropCaches(ioreq.Meta(p))
		h.ReadAt(ioreq.Reader(p), 0, mib)
		h.Close(ioreq.Meta(p))
	})
	c.Eng.Spawn("iozone", func(p *sim.Proc) {
		small, _ := fsys.Open(ioreq.Meta(p), "/small", fs.ORead|fs.OWrite|fs.OCreate)
		small.WriteAt(ioreq.Writer(p), 0, 4*mib)
		big, _ := fsys.Open(ioreq.Meta(p), "/big", fs.ORead|fs.OWrite|fs.OCreate)
		big.WriteAt(ioreq.Writer(p), 0, 64*mib)
		small.ReadAt(ioreq.Reader(p), 0, 4*mib)
		for i := int64(0); i < 64; i++ {
			big.ReadAt(ioreq.Reader(p), (i*37%64)*mib, 64<<10)
		}
		var vecs []fs.IOVec
		for i := int64(0); i < 32; i++ {
			vecs = append(vecs, fs.IOVec{Off: i * 2 * mib, Len: 256 << 10})
		}
		big.ReadVec(ioreq.Reader(p), vecs)
		big.ReadAt(ioreq.Reader(p), 0, 64*mib)
		big.ReadAt(ioreq.Reader(p), 63*mib, mib) // resident: all hits
		big.Sync(ioreq.Meta(p))
		big.Close(ioreq.Meta(p))
		small.Close(ioreq.Meta(p))
	})
	c.Eng.Run()
}

// nfsRun has each node write a file through its buffered NFS mount,
// then read the other node's file back, so reads miss the client
// cache and reach the I/O node's array. It spans the builtin fault
// plans' injection window (1–7 s).
func nfsRun(c *cluster.Cluster) {
	for i, n := range c.Nodes {
		i, n := i, n
		c.Eng.Spawn(n.Name, func(p *sim.Proc) {
			mine := fmt.Sprintf("/f%d", i)
			h, _ := n.NFS.Open(ioreq.Meta(p), mine, fs.ORead|fs.OWrite|fs.OCreate)
			for off := int64(0); off < 192*mib; off += 4 * mib {
				h.WriteAt(ioreq.Writer(p), off, 4*mib)
			}
			h.ReadAt(ioreq.Reader(p), 188*mib, 4*mib)
			h.Sync(ioreq.Meta(p))
			h.Close(ioreq.Meta(p))
			other := fmt.Sprintf("/f%d", 1-i)
			for _, path := range []string{other, mine} {
				h, err := n.NFS.Open(ioreq.Meta(p), path, fs.ORead)
				if err != nil {
					p.Sleep(sim.Second)
					h, _ = n.NFS.Open(ioreq.Meta(p), path, fs.ORead)
				}
				for off := int64(0); off < 192*mib; off += 4 * mib {
					h.ReadAt(ioreq.Reader(p), off, 4*mib)
				}
				h.Close(ioreq.Meta(p))
			}
		})
	}
	c.Eng.Run()
}

// mpiioRun runs four ranks on two nodes through compute, point-to-point
// messages (to the other node and, loopback, to the same node),
// barriers, collective writes and reads of a shared NFS file, and
// independent locked writes.
func mpiioRun(c *cluster.Cluster) {
	const ranks = 4
	w := c.NewWorld(c.RankNodes(ranks))
	f := mpiio.OpenFile(w, "/shared", fs.ORead|fs.OWrite|fs.OCreate, c.NFSMounts(ranks), mpiio.DefaultHints())
	for rank := 0; rank < ranks; rank++ {
		rank := rank
		c.Eng.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			if err := f.Open(p, rank); err != nil {
				panic(err)
			}
			for step := int64(0); step < 3; step++ {
				w.Compute(p, rank, 5*sim.Millisecond)
				w.Send(p, rank, (rank+1)%ranks, 256<<10)
				w.Send(p, rank, (rank+2)%ranks, 64<<10)
				w.Barrier(p, rank)
				var vecs []fs.IOVec
				for i := int64(0); i < 16; i++ {
					vecs = append(vecs, fs.IOVec{Off: step*16*mib + (i*ranks+int64(rank))*256<<10, Len: 256 << 10})
				}
				f.WriteVecAll(p, rank, vecs)
				f.ReadVecAll(p, rank, vecs)
			}
			f.WriteVec(p, rank, []fs.IOVec{{Off: 64*mib + int64(rank)*mib, Len: 64 << 10}, {Off: 64*mib + int64(rank)*mib + 128<<10, Len: 64 << 10}})
			f.Sync(p, rank)
			f.Close(p, rank)
		})
	}
	c.Eng.Run()
}

// TestAuxCounterGolden pins every telemetry counter, auxiliary ones
// included, of seeded cluster scenarios that between them add to every
// interned aux key: an IOzone-style local cache run, an NFS run under
// each builtin fault plan, and an MPI-IO run. The snapshots of each
// cluster's registry, in registration order, are hashed together.
func TestAuxCounterGolden(t *testing.T) {
	var all strings.Builder
	seen := map[string]bool{}
	record := func(name string, c *cluster.Cluster) {
		fmt.Fprintf(&all, "== %s at %d\n", name, c.Eng.Now())
		for _, s := range c.Telemetry.Snapshots() {
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			all.Write(b)
			all.WriteByte('\n')
			for k := range s.Counters.Aux {
				seen[k] = true
			}
		}
	}

	c := smallCluster("iozone")
	iozoneRun(c)
	record("iozone", c)

	for _, plan := range []string{"disk-fail", "slow-disk", "net-flap", "net-degrade", "nfs-stall"} {
		c := smallCluster(plan)
		pl, err := fault.Builtin(plan)
		if err != nil {
			t.Fatal(err)
		}
		fault.MustApply(c, pl)
		nfsRun(c)
		record(plan, c)
	}

	c = smallCluster("mpiio")
	mpiioRun(c)
	record("mpiio", c)

	// Every interned key, so a new counter needs a scenario here.
	var missing []string
	for _, name := range telemetry.AuxNames() {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("aux keys no scenario adds to: %v", missing)
	}

	sum := sha256.Sum256([]byte(all.String()))
	got := hex.EncodeToString(sum[:])
	lines := strings.Count(all.String(), "\n")
	if *updateAux {
		if err := os.MkdirAll(filepath.Dir(auxGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(auxGolden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d snapshot lines)", auxGolden, lines)
		return
	}
	want, err := os.ReadFile(auxGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("aux snapshots (%d lines) hash to %s, golden %s", lines, got, strings.TrimSpace(string(want)))
	}
}
