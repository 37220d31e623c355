package nfs

import (
	"testing"

	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

// cachedRig builds a rig whose clients have a data cache.
func cachedRig(nClients int, clientCacheBytes int64) *rig {
	r := newRig(nClients, 4*gb)
	// Rebuild clients with caching enabled.
	for i, c := range r.clients {
		params := c.params
		params.CacheBytes = clientCacheBytes
		r.clients[i] = NewClient(r.eng, params, c.Node(), r.net, r.srv)
	}
	return r
}

func TestClientCacheRereadIsMemorySpeed(t *testing.T) {
	r := cachedRig(1, 512*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.ORead|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 64*mb)
		t0 := p.Now()
		h.ReadAt(ioreq.Reader(p), 0, 64*mb) // own writes: cached
		d := sim.Duration(p.Now() - t0)
		h.Close(ioreq.Meta(p))
		// 64 MB at memory-copy speed ≈ 26 ms; the wire would need ~0.55 s.
		if d > 100*sim.Millisecond {
			t.Fatalf("cached re-read took %v, want memory speed", d)
		}
	})
	if r.clients[0].Stats.ReadRPCs != 0 {
		t.Fatalf("cached re-read issued %d read RPCs", r.clients[0].Stats.ReadRPCs)
	}
}

func TestWriteBehindDefersRPCs(t *testing.T) {
	r := cachedRig(1, 512*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 8*mb) // absorbed by write-behind
		if c.Stats.WriteRPCs != 0 {
			t.Errorf("write-behind issued %d RPCs before flush", c.Stats.WriteRPCs)
		}
		if w := r.srv.Telemetry().Snapshot().Counters.Write.Bytes; w != 0 {
			t.Errorf("server saw %d bytes before flush", w)
		}
		h.Close(ioreq.Meta(p)) // close-to-open: flush
		if w := r.srv.Telemetry().Snapshot().Counters.Write.Bytes; w != 8*mb {
			t.Errorf("server saw %d bytes after close, want 8MB", w)
		}
	})
}

func TestCloseToOpenStaleness(t *testing.T) {
	// Client 0 caches the file; client 1 overwrites it; client 0 sees
	// stale data until it re-opens (then its cache is invalidated and
	// the read goes to the server).
	r := cachedRig(2, 512*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c0, c1 := r.clients[0], r.clients[1]
		h0, _ := c0.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.ORead|fs.OCreate)
		h0.WriteAt(ioreq.Writer(p), 0, 4*mb)
		h0.Sync(ioreq.Meta(p)) // make it visible server-side

		// Client 0 reads: now cached.
		h0.ReadAt(ioreq.Reader(p), 0, 4*mb)
		rpc0 := c0.Stats.ReadRPCs

		// Client 1 rewrites the file through the server.
		h1, _ := c1.Open(ioreq.Meta(p), "/f", fs.OWrite)
		h1.WriteAt(ioreq.Writer(p), 0, 4*mb)
		h1.Close(ioreq.Meta(p))

		// Before re-open: client 0 still serves from its (stale) cache.
		h0.ReadAt(ioreq.Reader(p), 0, 4*mb)
		if c0.Stats.ReadRPCs != rpc0 {
			t.Errorf("read before re-open went to the server (close-to-open allows staleness)")
		}
		h0.Close(ioreq.Meta(p))

		// After re-open: revalidation sees the new generation and
		// invalidates; the read must hit the server.
		h0b, _ := c0.Open(ioreq.Meta(p), "/f", fs.ORead)
		h0b.ReadAt(ioreq.Reader(p), 0, 4*mb)
		if c0.Stats.ReadRPCs == rpc0 {
			t.Errorf("read after re-open did not revalidate against the server")
		}
		h0b.Close(ioreq.Meta(p))
	})
}

func TestDirectIOBypassesCache(t *testing.T) {
	r := cachedRig(1, 512*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.ORead|fs.OCreate)
		h.(*remoteHandle).SetDirectIO(true)
		h.WriteAt(ioreq.Writer(p), 0, 4*mb)
		if c.Stats.WriteRPCs == 0 {
			t.Error("direct write did not issue RPCs")
		}
		rpc0 := c.Stats.ReadRPCs
		h.ReadAt(ioreq.Reader(p), 0, 4*mb)
		if c.Stats.ReadRPCs == rpc0 {
			t.Error("direct read did not issue RPCs")
		}
		h.Close(ioreq.Meta(p))
	})
}

func TestWriteBehindSizeVisibleBeforeFlush(t *testing.T) {
	r := cachedRig(1, 512*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.ORead|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 3*mb)
		if h.Size() != 3*mb {
			t.Errorf("client size view = %d before flush", h.Size())
		}
		if n := h.ReadAt(ioreq.Reader(p), 0, 4*mb); n != 3*mb {
			t.Errorf("read %d of buffered data", n)
		}
		h.Close(ioreq.Meta(p))
	})
}

func TestDropCachesForcesRefetch(t *testing.T) {
	r := cachedRig(1, 512*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.ORead|fs.OCreate)
		h.WriteAt(ioreq.Writer(p), 0, 4*mb)
		h.Sync(ioreq.Meta(p))
		h.ReadAt(ioreq.Reader(p), 0, 4*mb)
		c.DropCaches(ioreq.Meta(p))
		rpc0 := c.Stats.ReadRPCs
		h.ReadAt(ioreq.Reader(p), 0, 4*mb)
		if c.Stats.ReadRPCs == rpc0 {
			t.Error("read after DropCaches did not refetch")
		}
		h.Close(ioreq.Meta(p))
	})
}

func TestCacheThrashWhenFileExceedsBudget(t *testing.T) {
	// File twice the client cache: sequential re-reads keep missing
	// (the characterization stress rule works at the client too).
	r := cachedRig(1, 64*mb)
	run(t, r.eng, func(p *sim.Proc) {
		c := r.clients[0]
		h, _ := c.Open(ioreq.Meta(p), "/f", fs.OWrite|fs.ORead|fs.OCreate)
		for off := int64(0); off < 128*mb; off += 8 * mb {
			h.WriteAt(ioreq.Writer(p), off, 8*mb)
		}
		h.Sync(ioreq.Meta(p))
		rpc0 := c.Stats.ReadRPCs
		for off := int64(0); off < 128*mb; off += 8 * mb {
			h.ReadAt(ioreq.Reader(p), off, 8*mb)
		}
		if c.Stats.ReadRPCs == rpc0 {
			t.Error("2x-cache file served entirely from client cache")
		}
		h.Close(ioreq.Meta(p))
	})
}
