// Package nfs models a network filesystem: a server exporting a local
// filesystem (fs.Mount) on an I/O node, and per-node clients that
// satisfy fs.Interface by issuing RPCs over a netsim.Network.
//
// The client caches attributes (the NFS attribute cache) and — when
// ClientParams.CacheBytes is set — file data under close-to-open
// consistency (clientcache.go). MPI-IO (ROMIO) disables the data
// cache for files shared by more than one process (SetDirectIO), as
// close-to-open is too weak there; single-process opens such as
// MADbench2's UNIQUE file-per-process keep it, which is how
// applications can exceed the characterized NFS rates when their
// working set fits in RAM. Server-side caching arises naturally from
// the exported fs.Mount's page cache.
package nfs

import (
	"fmt"

	"ioeval/internal/cache"
	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/netsim"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// rpcHeaderBytes approximates the on-wire size of an NFS RPC header.
const rpcHeaderBytes = 150

// ServerParams configures an NFS server.
type ServerParams struct {
	Name string
	// Threads is the number of nfsd threads: the server-side
	// concurrency limit for RPC processing.
	Threads int64
	// RPCCost is the server CPU cost to process one RPC.
	RPCCost sim.Duration
	// SyncExport models the Linux default `sync` export option: every
	// application-level write must be committed to stable storage
	// before the reply, costing CommitCost on a server thread. Large
	// streaming writes amortize it (the client uses UNSTABLE chunk
	// writes plus one COMMIT per application call), but small-record
	// workloads pay it per operation — a large part of why NAS BT-IO
	// "simple" collapses on NFS.
	SyncExport bool
	// CommitCost is the stable-storage commit charge per committed
	// write (journal commit + RAID controller write-back cache ack).
	CommitCost sim.Duration
	// LockCost is the lockd (NLM) processing charge per byte-range
	// lock/unlock pair, on top of the wire round trips. MPI-IO pays it
	// per operation on shared files.
	LockCost sim.Duration
}

// DefaultServerParams mirrors a stock Linux nfsd configuration with a
// sync export backed by a write-back-cached array.
func DefaultServerParams(name string) ServerParams {
	return ServerParams{
		Name:       name,
		Threads:    8,
		RPCCost:    30 * sim.Microsecond,
		SyncExport: true,
		CommitCost: 1300 * sim.Microsecond,
		LockCost:   800 * sim.Microsecond,
	}
}

// Server exports a local filesystem over the network.
type Server struct {
	eng     *sim.Engine
	params  ServerParams
	node    string
	net     *netsim.Network
	backend fs.Interface
	threads *sim.Resource
	handles map[string]fs.Handle
	gen     map[string]int64 // per-path change generation (attr cache / close-to-open)

	// downUntil marks the server unresponsive until this simulated
	// time (fault injection: a crashed or stalled nfsd). Clients ride
	// it out through their retry/timeout machinery (awaitServer).
	downUntil sim.Time

	rec *telemetry.Recorder
}

// NewServer creates a server on the given node exporting backend.
func NewServer(e *sim.Engine, params ServerParams, node string, net *netsim.Network, backend fs.Interface) *Server {
	if params.Threads <= 0 {
		panic(fmt.Sprintf("nfs %q: need at least one server thread", params.Name))
	}
	return &Server{
		eng:     e,
		params:  params,
		node:    node,
		net:     net,
		backend: backend,
		threads: sim.NewResource(e, "nfsd:"+params.Name, params.Threads),
		handles: map[string]fs.Handle{},
		gen:     map[string]int64{},
		rec:     telemetry.NewRecorder(e, "nfs-server:"+params.Name, telemetry.LevelGlobalFS, params.Threads),
	}
}

// Telemetry returns the server's telemetry probe.
func (s *Server) Telemetry() *telemetry.Recorder { return s.rec }

// Node returns the server's network node name.
func (s *Server) Node() string { return s.node }

// Backend returns the exported filesystem.
func (s *Server) Backend() fs.Interface { return s.backend }

// Stall makes the server unresponsive for d of simulated time from
// now: new RPCs park in the clients' retry loops until it returns.
// Overlapping stalls extend each other (the later deadline wins).
func (s *Server) Stall(d sim.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("nfs %q: negative stall", s.params.Name))
	}
	until := s.eng.Now() + sim.Time(d)
	if until > s.downUntil {
		s.downUntil = until
	}
	s.rec.Add("stalls", 1)
}

// DownUntil returns the time the server next accepts RPCs (zero when
// it never stalled).
func (s *Server) DownUntil() sim.Time { return s.downUntil }

// handle returns (opening if needed) the server-side handle for path.
func (s *Server) handle(r *ioreq.Request, path string, flags int) (fs.Handle, error) {
	if h, ok := s.handles[path]; ok {
		return h, nil
	}
	h, err := s.backend.Open(r, path, flags)
	if err != nil {
		return nil, err
	}
	s.handles[path] = h
	return h, nil
}

// serve is one server section: a server thread is held for cost plus
// the backend work done inside fn (which may be nil and returns the
// bytes it moved). The section records itself as ops operations of
// class, busy from just before it queues for a thread to its exit.
func (s *Server) serve(p *sim.Proc, class telemetry.OpClass, ops int64, cost sim.Duration, fn func() int64) {
	start := p.Now()
	s.rec.Enter()
	defer s.rec.Exit()
	s.threads.Acquire(p, 1)
	p.Sleep(cost)
	var bytes int64
	if fn != nil {
		bytes = fn()
	}
	s.threads.Release(1)
	s.rec.Observe(class, ops, bytes, sim.Duration(p.Now()-start))
}

// commit charges the stable-storage commit cost for n application
// writes on a sync export (no-op for async exports).
func (s *Server) commit(p *sim.Proc, n int64) {
	if !s.params.SyncExport || n == 0 {
		return
	}
	s.serve(p, telemetry.ClassMeta, n, s.params.CommitCost*sim.Duration(n), nil)
	s.rec.Add("commits", n)
}

// ClientParams configures an NFS client mount.
type ClientParams struct {
	Name  string
	RSize int64 // read chunk size per RPC
	WSize int64 // write chunk size per RPC
	// CacheBytes is the client-side page-cache budget for NFS data
	// (close-to-open consistency; see clientcache.go). Zero disables
	// client data caching.
	CacheBytes int64

	// Retry machinery (the mount's timeo/retrans knobs), exercised
	// when the server stalls: an RPC attempt times out after
	// RetryTimeout, then the client backs off — starting at
	// RetryBackoff and doubling up to RetryBackoffMax — before
	// retransmitting. Zero values take the defaults (1s timeout,
	// 100ms initial backoff, 10s cap).
	RetryTimeout    sim.Duration
	RetryBackoff    sim.Duration
	RetryBackoffMax sim.Duration
}

// DefaultClientParams mirrors a common rsize/wsize=256K mount.
func DefaultClientParams(name string) ClientParams {
	return ClientParams{
		Name: name, RSize: 256 << 10, WSize: 256 << 10,
		RetryTimeout:    sim.Second,
		RetryBackoff:    100 * sim.Millisecond,
		RetryBackoffMax: 10 * sim.Second,
	}
}

// Client is a node's NFS mount of a Server. It implements
// fs.Interface.
type Client struct {
	eng    *sim.Engine
	params ClientParams
	node   string
	net    *netsim.Network
	srv    *Server

	attrCache map[string]fs.FileInfo

	// Client data cache (nil when disabled); see clientcache.go.
	dataCache *cache.Cache
	pathSlots map[string]int64
	slotPaths map[int64]string
	validGen  map[string]int64
	sizes     map[string]int64 // client view of file sizes (write-behind)

	// Stats counts client-side RPC activity.
	Stats ClientStats

	rec *telemetry.Recorder
}

// ClientStats counts client-side data RPCs and attribute-cache hits;
// bytes, metadata RPCs, timeouts and retries are on the client's
// recorder.
type ClientStats struct {
	ReadRPCs, WriteRPCs int64
	AttrCacheHits       int64
}

var _ fs.Interface = (*Client)(nil)

// NewClient mounts srv on the given client node.
func NewClient(e *sim.Engine, params ClientParams, node string, net *netsim.Network, srv *Server) *Client {
	if params.RSize <= 0 || params.WSize <= 0 {
		panic(fmt.Sprintf("nfs client %q: rsize/wsize must be positive", params.Name))
	}
	if params.RetryTimeout <= 0 {
		params.RetryTimeout = sim.Second
	}
	if params.RetryBackoff <= 0 {
		params.RetryBackoff = 100 * sim.Millisecond
	}
	if params.RetryBackoffMax <= 0 {
		params.RetryBackoffMax = 10 * sim.Second
	}
	c := &Client{
		eng:       e,
		params:    params,
		node:      node,
		net:       net,
		srv:       srv,
		attrCache: map[string]fs.FileInfo{},
		pathSlots: map[string]int64{},
		slotPaths: map[int64]string{},
		validGen:  map[string]int64{},
		sizes:     map[string]int64{},
		rec:       telemetry.NewRecorder(e, "nfs-client:"+params.Name+":"+node, telemetry.LevelGlobalFS, 1),
	}
	if params.CacheBytes > 0 {
		cp := cache.DefaultParams(params.Name+":"+node+":datacache", params.CacheBytes)
		c.dataCache = cache.New(e, cp, &clientDev{c: c})
	}
	return c
}

// Name implements fs.Interface.
func (c *Client) Name() string { return c.params.Name }

// Telemetry returns the client's telemetry probe.
func (c *Client) Telemetry() *telemetry.Recorder { return c.rec }

// Node returns the client's network node.
func (c *Client) Node() string { return c.node }

// Server returns the mounted server.
func (c *Client) Server() *Server { return c.srv }

// awaitServer models the client's RPC retransmit machinery while the
// server is stalled: the in-flight attempt waits out RetryTimeout,
// then the client backs off — doubling from RetryBackoff up to
// RetryBackoffMax — and retransmits, until the server is back. Pure
// sim-clock arithmetic, so recovery timing is fully deterministic.
func (c *Client) awaitServer(r *ioreq.Request) {
	p := r.Proc()
	if p.Now() < c.srv.downUntil {
		r.Tag("server_stall")
	}
	backoff := c.params.RetryBackoff
	for p.Now() < c.srv.downUntil {
		p.Sleep(c.params.RetryTimeout) // in-flight attempt times out
		c.rec.Add("timeouts", 1)
		p.Sleep(backoff) // back off before retransmitting
		backoff *= 2
		if backoff > c.params.RetryBackoffMax {
			backoff = c.params.RetryBackoffMax
		}
		c.rec.Add("retries", 1)
	}
}

// InvalidateCaches drops the client's attribute cache and
// close-to-open validity tokens, as remounting after a server restart
// does: every path revalidates (and re-fetches data) on next open.
func (c *Client) InvalidateCaches() {
	c.attrCache = map[string]fs.FileInfo{}
	c.validGen = map[string]int64{}
	c.rec.Add("cache_invalidations", 1)
}

// metaRPC performs a small request/response exchange plus server CPU.
func (c *Client) metaRPC(r *ioreq.Request, fn func()) {
	p := r.Proc()
	c.awaitServer(r)
	start := p.Now()
	c.net.Send(r, c.node, c.srv.node, rpcHeaderBytes)
	c.srv.serve(p, telemetry.ClassMeta, 1, c.srv.params.RPCCost, func() int64 {
		if fn != nil {
			fn()
		}
		return 0
	})
	c.net.Send(r, c.srv.node, c.node, rpcHeaderBytes)
	c.rec.Observe(telemetry.ClassMeta, 1, 0, sim.Duration(p.Now()-start))
}

// Open implements fs.Interface.
func (c *Client) Open(r *ioreq.Request, path string, flags int) (fs.Handle, error) {
	r.PushOn(c.rec)
	defer r.Pop()
	var h fs.Handle
	var err error
	c.metaRPC(r, func() {
		h, err = c.srv.handle(r, path, flags)
		if err == nil && flags&fs.OTrunc != 0 {
			c.srv.gen[path]++
		}
	})
	if err != nil {
		return nil, err
	}
	if flags&fs.OTrunc != 0 {
		delete(c.attrCache, path)
		c.sizes[path] = 0
	}
	c.revalidate(path)
	return &remoteHandle{c: c, path: path, srvHandle: h}, nil
}

// Remove implements fs.Interface.
func (c *Client) Remove(r *ioreq.Request, path string) error {
	r.PushOn(c.rec)
	defer r.Pop()
	var err error
	c.metaRPC(r, func() {
		if h, ok := c.srv.handles[path]; ok {
			h.Close(r)
			delete(c.srv.handles, path)
		}
		err = c.srv.backend.Remove(r, path)
		c.srv.gen[path]++
	})
	delete(c.attrCache, path)
	c.invalidatePath(path)
	return err
}

// Stat implements fs.Interface, consulting the attribute cache first.
func (c *Client) Stat(r *ioreq.Request, path string) (fs.FileInfo, error) {
	if fi, ok := c.attrCache[path]; ok {
		c.Stats.AttrCacheHits++
		return fi, nil
	}
	r.PushOn(c.rec)
	defer r.Pop()
	var fi fs.FileInfo
	var err error
	c.metaRPC(r, func() { fi, err = c.srv.backend.Stat(r, path) })
	if err == nil {
		c.attrCache[path] = fi
	}
	return fi, err
}

// Sync implements fs.Interface: a COMMIT RPC plus a server-side sync.
func (c *Client) Sync(r *ioreq.Request) {
	r.PushOn(c.rec)
	defer r.Pop()
	c.metaRPC(r, func() { c.srv.backend.Sync(r) })
}

// LockUnlock charges the cost of count byte-range lock/unlock pairs.
// MPI-IO (ROMIO) brackets every operation on an NFS file with fcntl
// locks to get shared-file consistency; each pair is two synchronous
// RPCs. The mpiio layer calls this for mounts that support it.
func (c *Client) LockUnlock(r *ioreq.Request, count int64) {
	if count <= 0 {
		return
	}
	r.PushOn(c.rec)
	defer r.Pop()
	p := r.Proc()
	c.awaitServer(r)
	c.rec.Add("lock_pairs", count)
	start := p.Now()
	// Two round trips per pair plus the lockd (NLM) processing cost,
	// pipelined with the op stream: charged serially on the client,
	// plus server CPU on a thread.
	p.Sleep(sim.Duration(count) * (4*c.net.Params().Latency + c.srv.params.LockCost))
	c.srv.serve(p, telemetry.ClassMeta, 2*count, c.srv.params.RPCCost*sim.Duration(2*count), nil)
	c.rec.Observe(telemetry.ClassMeta, 2*count, 0, sim.Duration(p.Now()-start))
}

type remoteHandle struct {
	c         *Client
	path      string
	srvHandle fs.Handle
	closed    bool
	direct    bool // bypass the client data cache (MPI-IO shared files)
}

func (h *remoteHandle) Path() string { return h.path }

// Size returns the client's view of the file size: the server size
// extended by any not-yet-flushed write-behind data.
func (h *remoteHandle) Size() int64 {
	if sz := h.c.sizes[h.path]; sz > h.srvHandle.Size() {
		return sz
	}
	return h.srvHandle.Size()
}

func (h *remoteHandle) check() {
	if h.closed {
		panic(fmt.Sprintf("nfs: use of closed handle %q", h.path))
	}
}

// rpcRead fetches a range in RSize chunks, each a synchronous RPC.
func (c *Client) rpcRead(r *ioreq.Request, srvHandle fs.Handle, off, n int64) int64 {
	p := r.Proc()
	var got int64
	for n > 0 {
		chunk := n
		if chunk > c.params.RSize {
			chunk = c.params.RSize
		}
		c.awaitServer(r)
		c.Stats.ReadRPCs++
		c.net.Send(r, c.node, c.srv.node, rpcHeaderBytes)
		var nr int64
		c.srv.serve(p, telemetry.ClassRead, 1, c.srv.params.RPCCost, func() int64 {
			nr = srvHandle.ReadAt(r, off, chunk)
			return nr
		})
		c.net.Send(r, c.srv.node, c.node, rpcHeaderBytes+nr)
		got += nr
		off += chunk
		n -= chunk
		if nr < chunk {
			break // EOF
		}
	}
	return got
}

// ReadAt implements fs.Handle: served from the client data cache when
// close-to-open validity allows, otherwise in RSize RPC chunks.
func (h *remoteHandle) ReadAt(r *ioreq.Request, off, n int64) int64 {
	h.check()
	c := h.c
	r.Enter(c.rec)
	defer r.Exit()
	if got, ok := h.cachedRead(r, off, n); ok {
		c.rec.Add("cache_read_bytes", got)
		r.Observe(telemetry.ClassRead, 1, got)
		return got
	}
	got := c.rpcRead(r, h.srvHandle, off, n)
	r.Observe(telemetry.ClassRead, 1, got)
	return got
}

// rpcWriteUnstable pushes a range in WSize chunks of UNSTABLE write
// RPCs (no commit — callers decide when to commit).
func (c *Client) rpcWriteUnstable(r *ioreq.Request, srvHandle fs.Handle, off, n int64) int64 {
	p := r.Proc()
	var put int64
	for n > 0 {
		chunk := n
		if chunk > c.params.WSize {
			chunk = c.params.WSize
		}
		c.awaitServer(r)
		c.Stats.WriteRPCs++
		c.net.Send(r, c.node, c.srv.node, rpcHeaderBytes+chunk)
		c.srv.serve(p, telemetry.ClassWrite, 1, c.srv.params.RPCCost, func() int64 {
			srvHandle.WriteAt(r, off, chunk)
			return chunk
		})
		c.net.Send(r, c.srv.node, c.node, rpcHeaderBytes)
		put += chunk
		off += chunk
		n -= chunk
	}
	return put
}

// WriteAt implements fs.Handle. Buffered handles absorb the write
// into the client cache (write-behind); direct handles issue
// synchronous RPCs with a stable commit per call, as MPI-IO requires
// on NFS.
func (h *remoteHandle) WriteAt(r *ioreq.Request, off, n int64) int64 {
	h.check()
	c := h.c
	r.Enter(c.rec)
	defer r.Exit()
	p := r.Proc()
	if put, ok := h.cachedWrite(r, off, n); ok {
		c.rec.Add("cache_write_bytes", put)
		r.Observe(telemetry.ClassWrite, 1, put)
		return put
	}
	put := c.rpcWriteUnstable(r, h.srvHandle, off, n)
	c.srv.commit(p, 1)
	c.srv.gen[h.path]++
	delete(c.attrCache, h.path)
	r.Observe(telemetry.ClassWrite, 1, put)
	return put
}

// ReadVec implements fs.Handle. Many small operations are batched:
// the wire carries one aggregate request and one aggregate response,
// while per-operation latency and server CPU are charged for every
// element — so op-count penalties survive without one simulation
// event per operation.
func (h *remoteHandle) ReadVec(r *ioreq.Request, vecs []fs.IOVec) int64 {
	h.check()
	if len(vecs) == 0 {
		return 0
	}
	c := h.c
	r.Enter(c.rec)
	defer r.Exit()
	p := r.Proc()
	if c.dataCache != nil && !h.direct {
		var got int64
		for _, v := range vecs {
			n, ok := h.cachedRead(r, v.Off, v.Len)
			if !ok {
				n = c.rpcRead(r, h.srvHandle, v.Off, v.Len)
			}
			got += n
		}
		r.Observe(telemetry.ClassRead, int64(len(vecs)), got)
		return got
	}
	count := int64(len(vecs))
	c.awaitServer(r)
	c.Stats.ReadRPCs += count
	// Request stream: headers only (one per op).
	c.net.Send(r, c.node, c.srv.node, rpcHeaderBytes*count)
	// Per-RPC round-trip latencies beyond the first pipeline poorly for
	// synchronous clients: charge them serially.
	extra := count - 1
	p.Sleep(sim.Duration(extra) * 2 * c.net.Params().Latency)
	var got int64
	c.srv.serve(p, telemetry.ClassRead, count, c.srv.params.RPCCost*sim.Duration(count), func() int64 {
		got = h.srvHandle.ReadVec(r, vecs)
		return got
	})
	c.net.Send(r, c.srv.node, c.node, rpcHeaderBytes*count+got)
	r.Observe(telemetry.ClassRead, count, got)
	return got
}

// WriteVec implements fs.Handle; see ReadVec for the batching model.
func (h *remoteHandle) WriteVec(r *ioreq.Request, vecs []fs.IOVec) int64 {
	h.check()
	if len(vecs) == 0 {
		return 0
	}
	c := h.c
	r.Enter(c.rec)
	defer r.Exit()
	p := r.Proc()
	if c.dataCache != nil && !h.direct {
		var put int64
		for _, v := range vecs {
			n, ok := h.cachedWrite(r, v.Off, v.Len)
			if !ok {
				n = c.rpcWriteUnstable(r, h.srvHandle, v.Off, v.Len)
				c.srv.commit(p, 1)
				c.srv.gen[h.path]++
			}
			put += n
		}
		r.Observe(telemetry.ClassWrite, int64(len(vecs)), put)
		return put
	}
	count := int64(len(vecs))
	var total int64
	for _, v := range vecs {
		total += v.Len
	}
	c.awaitServer(r)
	c.Stats.WriteRPCs += count
	c.net.Send(r, c.node, c.srv.node, rpcHeaderBytes*count+total)
	extra := count - 1
	p.Sleep(sim.Duration(extra) * 2 * c.net.Params().Latency)
	var put int64
	c.srv.serve(p, telemetry.ClassWrite, count, c.srv.params.RPCCost*sim.Duration(count), func() int64 {
		put = h.srvHandle.WriteVec(r, vecs)
		return put
	})
	c.srv.commit(p, count)
	c.srv.gen[h.path]++
	c.net.Send(r, c.srv.node, c.node, rpcHeaderBytes*count)
	delete(c.attrCache, h.path)
	r.Observe(telemetry.ClassWrite, count, put)
	return put
}

// Sync implements fs.Handle: flush write-behind data, then COMMIT.
func (h *remoteHandle) Sync(r *ioreq.Request) {
	h.check()
	r.PushOn(h.c.rec)
	defer r.Pop()
	h.flushAndCommit(r)
	h.c.metaRPC(r, func() { h.srvHandle.Sync(r) })
}

// Close implements fs.Handle. Per close-to-open consistency the
// client flushes write-behind data and commits; the server-side
// handle stays open for other clients (it is reference-counted by
// path on the server).
func (h *remoteHandle) Close(r *ioreq.Request) {
	h.check()
	r.PushOn(h.c.rec)
	defer r.Pop()
	h.flushAndCommit(r)
	h.closed = true
	h.c.metaRPC(r, nil)
}
