// Package pfs models a PVFS-like user-level parallel filesystem:
// files are striped round-robin across multiple I/O servers, clients
// talk to all servers concurrently, and there is no client-side data
// caching and no locking (PVFS semantics — MPI-IO/ROMIO runs on it
// without the byte-range locks NFS needs).
//
// The paper's configuration-analysis phase lists "number and
// placement of I/O nodes" among the configurable factors but its
// testbeds had a single NFS node; the authors point to simulation
// (SIMCAN) for exploring other architectures. This package is that
// exploration: it lets the methodology characterize and evaluate
// multi-I/O-node configurations on the same simulated substrate.
package pfs

import (
	"fmt"

	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/netsim"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// rpcHeaderBytes approximates a PVFS request/response envelope.
const rpcHeaderBytes = 120

// Params configures a parallel filesystem deployment.
type Params struct {
	Name       string
	StripeSize int64 // bytes per stripe chunk (PVFS default: 64 KiB)
	// Threads per server (request concurrency limit).
	Threads int64
	// RPCCost is the server CPU charge per request.
	RPCCost sim.Duration
}

// DefaultParams mirrors a stock PVFS deployment.
func DefaultParams(name string) Params {
	return Params{
		Name:       name,
		StripeSize: 64 << 10,
		Threads:    16,
		RPCCost:    20 * sim.Microsecond,
	}
}

// Server is one I/O daemon: it stores the subfiles of its stripe
// column on a node-local filesystem.
type Server struct {
	eng     *sim.Engine
	node    string
	net     *netsim.Network
	backend fs.Interface
	threads *sim.Resource
	handles map[string]fs.Handle

	rec *telemetry.Recorder
}

// System is a deployed parallel filesystem: the server group plus
// shared metadata. Server 0 doubles as the metadata server, as in
// small PVFS deployments.
type System struct {
	params  Params
	servers []*Server
	sizes   map[string]int64 // logical file sizes (metadata)
}

// NewSystem deploys servers on the given nodes; backends[i] is the
// node-local filesystem of server i.
func NewSystem(e *sim.Engine, params Params, nodes []string, net *netsim.Network, backends []fs.Interface) *System {
	if len(nodes) == 0 || len(nodes) != len(backends) {
		panic(fmt.Sprintf("pfs %q: %d nodes, %d backends", params.Name, len(nodes), len(backends)))
	}
	if params.StripeSize <= 0 {
		panic(fmt.Sprintf("pfs %q: stripe size must be positive", params.Name))
	}
	if params.Threads <= 0 {
		params.Threads = 16
	}
	sys := &System{params: params, sizes: map[string]int64{}}
	for i, node := range nodes {
		sys.servers = append(sys.servers, &Server{
			eng:     e,
			node:    node,
			net:     net,
			backend: backends[i],
			threads: sim.NewResource(e, fmt.Sprintf("pfsd:%s:%d", params.Name, i), params.Threads),
			handles: map[string]fs.Handle{},
			rec: telemetry.NewRecorder(e, fmt.Sprintf("pfs-server:%s:%s", params.Name, node),
				telemetry.LevelGlobalFS, params.Threads),
		})
	}
	return sys
}

// Servers returns the I/O daemons (for statistics inspection).
func (sys *System) Servers() []*Server { return sys.servers }

// Backend returns the server's node-local filesystem (the methodology
// characterizes it as the "local FS" level of a PFS deployment).
func (s *Server) Backend() fs.Interface { return s.backend }

// Telemetry returns the server's telemetry probe.
func (s *Server) Telemetry() *telemetry.Recorder { return s.rec }

// Params returns the deployment parameters.
func (sys *System) Params() Params { return sys.params }

// subfile returns (opening/creating lazily) server i's subfile handle
// for a path.
func (sys *System) subfile(r *ioreq.Request, i int, path string) (fs.Handle, error) {
	srv := sys.servers[i]
	if h, ok := srv.handles[path]; ok {
		return h, nil
	}
	h, err := srv.backend.Open(r, fmt.Sprintf("/pvfs%s.s%d", path, i), fs.ORead|fs.OWrite|fs.OCreate)
	if err != nil {
		return nil, err
	}
	srv.handles[path] = h
	return h, nil
}

// serve is one server section on srv: a thread is held for cost plus
// the backend work fn does (fn may be nil). The section records itself
// as ops operations of class moving bytes, busy from just before it
// queues for a thread to its exit, whether or not fn fails.
func (sys *System) serve(p *sim.Proc, srv *Server, class telemetry.OpClass, ops, bytes int64, cost sim.Duration, fn func() error) error {
	start := p.Now()
	srv.rec.Enter()
	defer srv.rec.Exit()
	srv.threads.Acquire(p, 1)
	p.Sleep(cost)
	var err error
	if fn != nil {
		err = fn()
	}
	srv.threads.Release(1)
	srv.rec.Observe(class, ops, bytes, sim.Duration(p.Now()-start))
	return err
}

// Client is a node's view of the parallel filesystem. It implements
// fs.Interface. Note the absence of ByteRangeLocker and of any data
// cache: PVFS does neither.
type Client struct {
	eng  *sim.Engine
	node string
	net  *netsim.Network
	sys  *System

	rec *telemetry.Recorder
}

var _ fs.Interface = (*Client)(nil)

// NewClient attaches a compute node to the filesystem.
func NewClient(e *sim.Engine, node string, net *netsim.Network, sys *System) *Client {
	return &Client{
		eng:  e,
		node: node,
		net:  net,
		sys:  sys,
		rec: telemetry.NewRecorder(e, fmt.Sprintf("pfs-client:%s:%s", sys.params.Name, node),
			telemetry.LevelGlobalFS, 1),
	}
}

// Telemetry returns the client's telemetry probe.
func (c *Client) Telemetry() *telemetry.Recorder { return c.rec }

// Name implements fs.Interface.
func (c *Client) Name() string { return c.sys.params.Name }

// Node returns the client's network node.
func (c *Client) Node() string { return c.node }

// metaServer is the metadata daemon (server 0).
func (c *Client) metaServer() *Server { return c.sys.servers[0] }

// metaRPC performs a metadata request against server 0.
func (c *Client) metaRPC(r *ioreq.Request, fn func() error) error {
	srv := c.metaServer()
	p := r.Proc()
	start := p.Now()
	c.net.Send(r, c.node, srv.node, rpcHeaderBytes)
	err := c.sys.serve(p, srv, telemetry.ClassMeta, 1, 0, c.sys.params.RPCCost, fn)
	c.net.Send(r, srv.node, c.node, rpcHeaderBytes)
	c.rec.Observe(telemetry.ClassMeta, 1, 0, sim.Duration(p.Now()-start))
	return err
}

// Open implements fs.Interface.
func (c *Client) Open(r *ioreq.Request, path string, flags int) (fs.Handle, error) {
	r.PushOn(c.rec)
	defer r.Pop()
	err := c.metaRPC(r, func() error {
		_, exists := c.sys.sizes[path]
		if !exists {
			if flags&fs.OCreate == 0 {
				return fmt.Errorf("open %q: %w", path, fs.ErrNotExist)
			}
			c.sys.sizes[path] = 0
		}
		if flags&fs.OTrunc != 0 {
			c.sys.sizes[path] = 0
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &pfsHandle{c: c, path: path}, nil
}

// Remove implements fs.Interface.
func (c *Client) Remove(r *ioreq.Request, path string) error {
	r.PushOn(c.rec)
	defer r.Pop()
	return c.metaRPC(r, func() error {
		if _, ok := c.sys.sizes[path]; !ok {
			return fmt.Errorf("remove %q: %w", path, fs.ErrNotExist)
		}
		delete(c.sys.sizes, path)
		for i, srv := range c.sys.servers {
			if h, ok := srv.handles[path]; ok {
				h.Close(r)
				delete(srv.handles, path)
				// The stripe file exists whenever a handle does; a
				// backend miss here is not a client-visible error.
				_ = srv.backend.Remove(r, fmt.Sprintf("/pvfs%s.s%d", path, i))
			}
		}
		return nil
	})
}

// Stat implements fs.Interface.
func (c *Client) Stat(r *ioreq.Request, path string) (fs.FileInfo, error) {
	r.PushOn(c.rec)
	defer r.Pop()
	var fi fs.FileInfo
	err := c.metaRPC(r, func() error {
		size, ok := c.sys.sizes[path]
		if !ok {
			return fmt.Errorf("stat %q: %w", path, fs.ErrNotExist)
		}
		fi = fs.FileInfo{Path: path, Size: size}
		return nil
	})
	return fi, err
}

// Sync implements fs.Interface: flush every server's backend.
func (c *Client) Sync(r *ioreq.Request) {
	r.PushOn(c.rec)
	defer r.Pop()
	fns := make([]func(*sim.Proc), len(c.sys.servers))
	for i := range c.sys.servers {
		srv := c.sys.servers[i]
		fns[i] = func(child *sim.Proc) {
			cr := r.WithProc(child)
			c.net.Send(cr, c.node, srv.node, rpcHeaderBytes)
			// A sync charges no RPC cost and cannot fail.
			_ = c.sys.serve(child, srv, telemetry.ClassMeta, 1, 0, 0, func() error {
				srv.backend.Sync(cr)
				return nil
			})
			c.net.Send(cr, srv.node, c.node, rpcHeaderBytes)
		}
	}
	sim.Fork(r.Proc(), "pfs-sync", fns...)
}
