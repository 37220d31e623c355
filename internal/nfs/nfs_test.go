package nfs

import (
	"errors"
	"fmt"
	"testing"

	"ioeval/internal/cache"
	"ioeval/internal/device"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/netsim"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// rig is a one-server, n-client NFS setup over GigE.
type rig struct {
	eng     *sim.Engine
	net     *netsim.Network
	srv     *Server
	clients []*Client
	disk    *device.Disk
	srvFS   *fs.Mount
}

func newRig(nClients int, serverCacheBytes int64) *rig {
	e := sim.NewEngine()
	net := netsim.New(e, netsim.GigabitEthernet("data"))
	net.Attach("srv")
	d := device.NewDisk(e, device.DefaultSATA("sd", 917*gb, 100e6))
	pc := cache.New(e, cache.DefaultParams("srv-pc", serverCacheBytes), d)
	backend := fs.NewMount(e, fs.DefaultMountParams("ext4"), pc)
	srv := NewServer(e, DefaultServerParams("nfs"), "srv", net, backend)
	r := &rig{eng: e, net: net, srv: srv, disk: d, srvFS: backend}
	for i := 0; i < nClients; i++ {
		node := fmt.Sprintf("c%d", i)
		net.Attach(node)
		r.clients = append(r.clients, NewClient(e, DefaultClientParams("nfs"), node, net, srv))
	}
	return r
}

func run(t *testing.T, e *sim.Engine, fn func(*sim.Proc)) {
	t.Helper()
	e.Spawn("t", func(p *sim.Proc) { fn(p) })
	e.Run()
}

func TestRemoteWriteReadRoundTrip(t *testing.T) {
	r := newRig(1, 256*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, err := c.Open(ioreq.Meta(p), "/shared", fs.OWrite|fs.OCreate)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if n := h.WriteAt(ioreq.Writer(p), 0, 4*mb); n != 4*mb {
			t.Fatalf("wrote %d", n)
		}
		if n := h.ReadAt(ioreq.Reader(p), 0, 4*mb); n != 4*mb {
			t.Fatalf("read %d", n)
		}
		h.Close(ioreq.Meta(p))
	})
	if c := r.srv.Telemetry().Snapshot().Counters; c.Write.Bytes != 4*mb || c.Read.Bytes != 4*mb {
		t.Fatalf("server moved %d bytes written, %d read", c.Write.Bytes, c.Read.Bytes)
	}
}

func TestOpenMissingFails(t *testing.T) {
	r := newRig(1, 64*mb)
	run(t, r.eng, func(p *sim.Proc) {
		_, err := r.clients[0].Open(ioreq.Meta(p), "/ghost", fs.ORead)
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestThroughputBoundedByNetwork(t *testing.T) {
	r := newRig(1, 4*gb)
	var dur sim.Duration
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		t0 := p.Now()
		h.WriteAt(ioreq.Writer(p), 0, 512*mb)
		dur = sim.Duration(p.Now() - t0)
		h.Close(ioreq.Meta(p))
	})
	rate := float64(512*mb) / dur.Seconds() / 1e6
	// GigE effective ~117 MB/s; with RPC overheads we must land below
	// that but within reach of it (server disk is faster than wire for
	// sequential writes into cache).
	if rate > 117 {
		t.Fatalf("NFS write rate %.1f MB/s exceeds wire speed", rate)
	}
	if rate < 60 {
		t.Fatalf("NFS write rate %.1f MB/s unreasonably low", rate)
	}
}

func TestSharedFileVisibleAcrossClients(t *testing.T) {
	r := newRig(2, 256*mb)
	run(t, r.eng, func(p *sim.Proc) {
		h0, _ := r.clients[0].Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h0.WriteAt(ioreq.Writer(p), 0, mb)
		h0.Close(ioreq.Meta(p))
		h1, err := r.clients[1].Open(ioreq.Meta(p), "/f", fs.ORead)
		if err != nil {
			t.Fatalf("client1 open: %v", err)
		}
		if n := h1.ReadAt(ioreq.Reader(p), 0, 2*mb); n != mb {
			t.Fatalf("client1 read %d, want %d", n, mb)
		}
		h1.Close(ioreq.Meta(p))
	})
}

func TestAttrCache(t *testing.T) {
	r := newRig(1, 64*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, kb)
		h.Close(ioreq.Meta(p))
		c.Stat(ioreq.Meta(p), "/f")
		t0 := p.Now()
		c.Stat(ioreq.Meta(p), "/f") // cached: free and no RPC
		if p.Now() != t0 {
			t.Error("cached stat cost time")
		}
		if c.Stats.AttrCacheHits != 1 {
			t.Errorf("attr cache hits = %d", c.Stats.AttrCacheHits)
		}
		// A write invalidates the attribute cache.
		h2, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite)
		h2.WriteAt(ioreq.Writer(p), 0, kb)
		h2.Close(ioreq.Meta(p))
		meta0 := c.Telemetry().Snapshot().Counters.Meta.Ops
		c.Stat(ioreq.Meta(p), "/f")
		if c.Telemetry().Snapshot().Counters.Meta.Ops != meta0+1 {
			t.Error("stat after write did not go to server")
		}
	})
}

func TestSmallOpsDominatedByPerOpCost(t *testing.T) {
	// The BT-IO "simple" effect: the same bytes in tiny strided
	// operations must be far slower than one big operation.
	r := newRig(1, 4*gb)
	var tBig, tSmall sim.Duration
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		t0 := p.Now()
		h.WriteAt(ioreq.Writer(p), 0, 10*mb)
		tBig = sim.Duration(p.Now() - t0)

		var vecs []fs.IOVec
		rec := int64(1600)
		for i := int64(0); i < 6561; i++ {
			vecs = append(vecs, fs.IOVec{Off: i * rec * 16, Len: rec})
		}
		t0 = p.Now()
		h.WriteVec(ioreq.Writer(p), vecs) // ~10.5 MB in 6561 ops
		tSmall = sim.Duration(p.Now() - t0)
		h.Close(ioreq.Meta(p))
	})
	if tSmall < 5*tBig {
		t.Fatalf("small strided writes (%v) not ≫ slower than bulk (%v)", tSmall, tBig)
	}
}

func TestVecBatchingKeepsEventCountBounded(t *testing.T) {
	// 100k tiny reads must complete quickly in *wall-clock* terms —
	// this is a regression test for the event-explosion problem.
	r := newRig(1, 4*gb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 200*mb)
		vecs := make([]fs.IOVec, 100000)
		for i := range vecs {
			vecs[i] = fs.IOVec{Off: int64(i) * 2 * kb, Len: kb}
		}
		if n := h.ReadVec(ioreq.Reader(p), vecs); n != 100000*kb {
			t.Fatalf("vec read returned %d", n)
		}
		h.Close(ioreq.Meta(p))
	})
	if r.clients[0].Stats.ReadRPCs != 100000 {
		t.Fatalf("RPC accounting: %+v", r.clients[0].Stats)
	}
}

func TestConcurrentClientsContendOnServer(t *testing.T) {
	// One client moving X bytes vs four clients each moving X bytes:
	// aggregate time must grow (shared server NIC).
	soloTime := func() sim.Duration {
		r := newRig(1, 4*gb)
		var d sim.Duration
		run(t, r.eng, func(p *sim.Proc) {
			h, _ := r.clients[0].Open(ioreq.Meta(p), "/f0", fs.OWrite|fs.OCreate)
			t0 := p.Now()
			h.WriteAt(ioreq.Writer(p), 0, 128*mb)
			d = sim.Duration(p.Now() - t0)
			h.Close(ioreq.Meta(p))
		})
		return d
	}()

	r := newRig(4, 4*gb)
	var slowest sim.Duration
	done := sim.NewCompletion(r.eng, 4)
	for i, c := range r.clients {
		i, c := i, c
		r.eng.Spawn("cl", func(p *sim.Proc) {
			h, _ := c.Open(ioreq.Meta(p), fmt.Sprintf("/f%d", i), fs.OWrite|fs.OCreate)
			t0 := p.Now()
			h.WriteAt(ioreq.Writer(p), 0, 128*mb)
			if d := sim.Duration(p.Now() - t0); d > slowest {
				slowest = d
			}
			h.Close(ioreq.Meta(p))
			done.Done()
		})
	}
	r.eng.Run()
	if slowest < 3*soloTime {
		t.Fatalf("4-way contention: slowest %v vs solo %v, want ≥3x", slowest, soloTime)
	}
}

func TestServerCacheMakesRereadFast(t *testing.T) {
	// Write then re-read with a warm server cache vs a cold one.
	r := newRig(1, 4*gb)
	var warm sim.Duration
	run(t, r.eng, func(p *sim.Proc) {
		h, _ := r.clients[0].Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 64*mb)
		t0 := p.Now()
		h.ReadAt(ioreq.Reader(p), 0, 64*mb)
		warm = sim.Duration(p.Now() - t0)
		h.Close(ioreq.Meta(p))
	})
	// Warm-cache NFS reads are network-bound: ≥80 MB/s.
	rate := float64(64*mb) / warm.Seconds() / 1e6
	if rate < 80 {
		t.Fatalf("warm re-read rate %.1f MB/s, want network-bound ≥80", rate)
	}
}

func TestRemoveInvalidatesServerHandle(t *testing.T) {
	r := newRig(1, 64*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, kb)
		h.Close(ioreq.Meta(p))
		if err := c.Remove(ioreq.Meta(p), "/f"); err != nil {
			t.Fatalf("remove: %v", err)
		}
		if _, err := c.Open(ioreq.Meta(p), "/f", fs.ORead); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("open after remove: %v", err)
		}
	})
}

func BenchmarkNFSWrite(b *testing.B) {
	r := newRig(1, 4*gb)
	r.eng.Spawn("w", func(p *sim.Proc) {
		h, _ := r.clients[0].Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		for i := 0; i < b.N; i++ {
			h.WriteAt(ioreq.Writer(p), int64(i%512)*mb, 256*kb)
		}
		h.Close(ioreq.Meta(p))
	})
	b.ResetTimer()
	r.eng.Run()
}

// TestServerGaugesBalance drives the server through a failing
// metadata RPC and, on the default sync export, direct writes that
// commit, from two clients at once; every recorder's queue gauge must
// be back at zero once the engine drains.
func TestServerGaugesBalance(t *testing.T) {
	r := newRig(2, 64*mb)
	if !r.srv.params.SyncExport {
		t.Fatal("default export is not sync; the commit path is not exercised")
	}
	for i, c := range r.clients {
		c := c
		r.eng.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			if _, err := c.Open(ioreq.Meta(p), "/ghost", fs.ORead); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("open missing: err = %v", err)
			}
			h, err := c.Open(ioreq.Meta(p), "/shared", fs.OWrite|fs.OCreate)
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			h.(*remoteHandle).SetDirectIO(true)
			h.WriteAt(ioreq.Writer(p), int64(i)*mb, 256*kb)
			h.WriteVec(ioreq.Writer(p), []fs.IOVec{{Off: 2 * mb, Len: 4 * kb}, {Off: 3 * mb, Len: 4 * kb}})
			h.Sync(ioreq.Meta(p))
			h.Close(ioreq.Meta(p))
		})
	}
	r.eng.Run()
	if r.srv.rec.AuxVal("commits") == 0 {
		t.Error("no commits recorded; the sync-export path did not run")
	}
	recs := []*telemetry.Recorder{r.srv.Telemetry()}
	for _, c := range r.clients {
		recs = append(recs, c.Telemetry())
	}
	for _, rec := range recs {
		if d := rec.Snapshot().Counters.QueueDepth; d != 0 {
			t.Errorf("%s: queue depth %d, want 0 after a drained run", rec.Component(), d)
		}
	}
	if r.srv.Telemetry().Snapshot().Counters.MaxQueueDepth == 0 {
		t.Error("server gauge never rose; the server sections did not run")
	}
}
