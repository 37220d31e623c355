package pfs

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"ioeval/internal/cache"
	"ioeval/internal/device"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/netsim"
	"ioeval/internal/sim"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// rig builds nServers PFS servers and one client over GigE.
type rig struct {
	eng    *sim.Engine
	sys    *System
	client *Client
	disks  []*device.Disk
}

func newRig(nServers int) *rig {
	e := sim.NewEngine()
	net := netsim.New(e, netsim.GigabitEthernet("data"))
	nodes := make([]string, nServers)
	backends := make([]fs.Interface, nServers)
	r := &rig{eng: e}
	for i := range nodes {
		nodes[i] = fmt.Sprintf("io%d", i)
		net.Attach(nodes[i])
		d := device.NewDisk(e, device.DefaultSATA(fmt.Sprintf("d%d", i), 230*gb, 100e6))
		r.disks = append(r.disks, d)
		pc := cache.New(e, cache.DefaultParams(fmt.Sprintf("pc%d", i), 1*gb), d)
		backends[i] = fs.NewMount(e, fs.DefaultMountParams("ext4"), pc)
	}
	net.Attach("cl")
	r.sys = NewSystem(e, DefaultParams("pvfs"), nodes, net, backends)
	r.client = NewClient(e, "cl", net, r.sys)
	return r
}

func run(t *testing.T, e *sim.Engine, fn func(*sim.Proc)) {
	t.Helper()
	e.Spawn("t", func(p *sim.Proc) { fn(p) })
	e.Run()
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := newRig(4)
	run(t, r.eng, func(p *sim.Proc) {
		h, err := r.client.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.ORead|fs.OCreate)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if n := h.WriteAt(ioreq.Writer(p), 0, 8*mb); n != 8*mb {
			t.Fatalf("wrote %d", n)
		}
		if h.Size() != 8*mb {
			t.Fatalf("size = %d", h.Size())
		}
		if n := h.ReadAt(ioreq.Reader(p), 0, 8*mb); n != 8*mb {
			t.Fatalf("read %d", n)
		}
		h.Close(ioreq.Meta(p))
	})
}

func TestStripingDistributesEvenly(t *testing.T) {
	r := newRig(4)
	run(t, r.eng, func(p *sim.Proc) {
		h, _ := r.client.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 8*mb) // 128 chunks of 64 KiB over 4 servers
		h.Close(ioreq.Meta(p))
	})
	for i, srv := range r.sys.Servers() {
		if got := srv.Telemetry().Snapshot().Counters.Write.Bytes; got != 2*mb {
			t.Fatalf("server %d got %d bytes, want 2MB", i, got)
		}
	}
}

func TestOpenMissingFails(t *testing.T) {
	r := newRig(2)
	run(t, r.eng, func(p *sim.Proc) {
		if _, err := r.client.Open(ioreq.Meta(p), "/ghost", fs.ORead); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestStatRemove(t *testing.T) {
	r := newRig(2)
	run(t, r.eng, func(p *sim.Proc) {
		h, _ := r.client.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 100*kb)
		h.Close(ioreq.Meta(p))
		fi, err := r.client.Stat(ioreq.Meta(p), "/f")
		if err != nil || fi.Size != 100*kb {
			t.Fatalf("stat = %+v, %v", fi, err)
		}
		if err := r.client.Remove(ioreq.Meta(p), "/f"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if _, err := r.client.Stat(ioreq.Meta(p), "/f"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("stat after remove: %v", err)
		}
	})
}

func TestTruncateOnOpen(t *testing.T) {
	r := newRig(2)
	run(t, r.eng, func(p *sim.Proc) {
		h, _ := r.client.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, mb)
		h.Close(ioreq.Meta(p))
		h2, _ := r.client.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OTrunc)
		if h2.Size() != 0 {
			t.Fatalf("size after trunc = %d", h2.Size())
		}
		h2.Close(ioreq.Meta(p))
	})
}

func TestReadClampsToEOF(t *testing.T) {
	r := newRig(2)
	run(t, r.eng, func(p *sim.Proc) {
		h, _ := r.client.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.ORead|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 100*kb)
		if n := h.ReadAt(ioreq.Reader(p), 50*kb, mb); n != 50*kb {
			t.Fatalf("short read = %d", n)
		}
		if n := h.ReadAt(ioreq.Reader(p), mb, kb); n != 0 {
			t.Fatalf("read past EOF = %d", n)
		}
		h.Close(ioreq.Meta(p))
	})
}

func TestMoreServersMoreThroughput(t *testing.T) {
	// The point of the architecture: aggregate bandwidth scales with
	// I/O nodes (until the client NIC binds).
	timeFor := func(nServers int) sim.Duration {
		r := newRig(nServers)
		var dur sim.Duration
		run(t, r.eng, func(p *sim.Proc) {
			h, _ := r.client.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
			t0 := p.Now()
			h.WriteAt(ioreq.Writer(p), 0, 256*mb)
			h.Sync(ioreq.Meta(p))
			dur = sim.Duration(p.Now() - t0)
			h.Close(ioreq.Meta(p))
		})
		return dur
	}
	t1, t4 := timeFor(1), timeFor(4)
	if t4 >= t1 {
		t.Fatalf("4 servers (%v) not faster than 1 (%v)", t4, t1)
	}
}

func TestVecTotals(t *testing.T) {
	r := newRig(3)
	run(t, r.eng, func(p *sim.Proc) {
		h, _ := r.client.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.ORead|fs.OCreate)
		var vecs []fs.IOVec
		for i := int64(0); i < 100; i++ {
			vecs = append(vecs, fs.IOVec{Off: i * 100 * kb, Len: 10 * kb})
		}
		if n := h.WriteVec(ioreq.Writer(p), vecs); n != 1000*kb {
			t.Fatalf("vec wrote %d", n)
		}
		if n := h.ReadVec(ioreq.Reader(p), vecs); n != 1000*kb {
			t.Fatalf("vec read %d", n)
		}
		h.Close(ioreq.Meta(p))
	})
}

func TestNoLockingInterface(t *testing.T) {
	// PVFS needs no byte-range locks: the client must NOT implement
	// the locking interface the mpiio layer probes for.
	type locker interface {
		LockUnlock(p *sim.Proc, count int64)
	}
	var c fs.Interface = newRig(1).client
	if _, ok := c.(locker); ok {
		t.Fatal("pfs.Client must not implement byte-range locking")
	}
}

// Property: stripe mapping preserves total bytes and every subfile
// extent is non-overlapping within its server.
func TestQuickStripeMapCoverage(t *testing.T) {
	r := newRig(5)
	h := &pfsHandle{c: r.client, path: "/q"}
	f := func(raw []uint16) bool {
		var vecs []fs.IOVec
		off := int64(0)
		var total int64
		for _, v := range raw {
			l := int64(v%5000) + 1
			gap := int64(v % 3000)
			off += gap
			vecs = append(vecs, fs.IOVec{Off: off, Len: l})
			off += l
			total += l
		}
		ops := h.stripeMap(vecs)
		var mapped int64
		for _, op := range ops {
			for i, v := range op.vecs {
				mapped += v.Len
				if i > 0 && v.Off < op.vecs[i-1].Off+op.vecs[i-1].Len {
					return false // overlap or disorder within a server
				}
			}
		}
		return mapped == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// failOpen is a backend whose Open always fails, which drives
// transfer's subfile error path.
type failOpen struct{ fs.Interface }

func (failOpen) Open(*ioreq.Request, string, int) (fs.Handle, error) {
	return nil, errors.New("backend down")
}

// TestServerGaugesBalance runs the server sections through their
// error paths — a metadata RPC whose fn fails and a transfer whose
// subfile open fails — and through Sync, then checks that every
// recorder's queue gauge is back at zero once the engine drains.
func TestServerGaugesBalance(t *testing.T) {
	r := newRig(2)
	srv1 := r.sys.Servers()[1]
	run(t, r.eng, func(p *sim.Proc) {
		if _, err := r.client.Open(ioreq.Meta(p), "/ghost", fs.ORead); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("open missing: err = %v", err)
		}
		if _, err := r.client.Stat(ioreq.Meta(p), "/ghost"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("stat missing: err = %v", err)
		}
		h, err := r.client.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		h.WriteAt(ioreq.Writer(p), 0, 1*mb)
		h.Sync(ioreq.Meta(p))
		h.Close(ioreq.Meta(p))
		// Server 1 opens subfiles lazily, so a new path reaches its
		// failing backend.
		srv1.backend = failOpen{srv1.backend}
		g, err := r.client.Open(ioreq.Meta(p), "/g", fs.OWrite|fs.OCreate)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("write to a failing subfile did not panic")
				}
			}()
			g.WriteAt(ioreq.Writer(p), 0, 1*mb)
		}()
	})
	for _, srv := range r.sys.Servers() {
		c := srv.Telemetry().Snapshot().Counters
		if c.QueueDepth != 0 || c.MaxQueueDepth == 0 {
			t.Errorf("%s: queue depth %d (max %d), want 0 after a drained run that used the server",
				srv.Telemetry().Component(), c.QueueDepth, c.MaxQueueDepth)
		}
	}
	if d := r.client.Telemetry().Snapshot().Counters.QueueDepth; d != 0 {
		t.Errorf("client queue depth %d, want 0", d)
	}
}
