package pfs

import (
	"fmt"
	"sort"

	"ioeval/internal/fs"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// pfsHandle is an open parallel file.
type pfsHandle struct {
	c      *Client
	path   string
	closed bool
}

var _ fs.Handle = (*pfsHandle)(nil)

func (h *pfsHandle) Path() string { return h.path }

func (h *pfsHandle) Size() int64 { return h.c.sys.sizes[h.path] }

func (h *pfsHandle) check() {
	if h.closed {
		panic(fmt.Sprintf("pfs: use of closed handle %q", h.path))
	}
}

// serverOp is the per-server share of a striped request: subfile
// extents plus the operation count it represents.
type serverOp struct {
	vecs  []fs.IOVec
	bytes int64
	ops   int64
}

// stripeMap splits logical extents into per-server subfile extents.
// Global chunk g lives on server g%N at subfile chunk g/N.
func (h *pfsHandle) stripeMap(vecs []fs.IOVec) []serverOp {
	sys := h.c.sys
	stripe := sys.params.StripeSize
	n := int64(len(sys.servers))
	out := make([]serverOp, n)
	for _, v := range vecs {
		off, length := v.Off, v.Len
		first := true
		for length > 0 {
			g := off / stripe
			within := off % stripe
			take := stripe - within
			if take > length {
				take = length
			}
			s := g % n
			local := (g/n)*stripe + within
			op := &out[s]
			// Merge physically adjacent subfile extents.
			if k := len(op.vecs); k > 0 && op.vecs[k-1].Off+op.vecs[k-1].Len == local {
				op.vecs[k-1].Len += take
			} else {
				op.vecs = append(op.vecs, fs.IOVec{Off: local, Len: take})
			}
			op.bytes += take
			if first {
				op.ops++ // each server charges one request per client op
				first = false
			}
			off += take
			length -= take
		}
	}
	// Every touched server charges at least one request per call.
	for i := range out {
		if out[i].bytes > 0 && out[i].ops == 0 {
			out[i].ops = 1
		}
	}
	return out
}

// transfer executes the striped request: all touched servers work
// concurrently; per server the client pays request envelopes, the
// wire carries the aggregate data, and the server performs the
// subfile I/O on its local stack. The caller has entered the
// client's recorder on r; transfer observes the request on it.
func (h *pfsHandle) transfer(r *ioreq.Request, ops []serverOp, write bool) int64 {
	c := h.c
	sys := c.sys
	class := telemetry.ClassRead
	if write {
		class = telemetry.ClassWrite
	}
	var fns []func(*sim.Proc)
	var total int64
	var errs []error
	for i := range ops {
		i := i
		op := ops[i]
		if op.bytes == 0 {
			continue
		}
		total += op.bytes
		srv := sys.servers[i]
		fns = append(fns, func(child *sim.Proc) {
			cr := r.WithProc(child)
			req := rpcHeaderBytes * op.ops
			if write {
				req += op.bytes
			}
			c.net.Send(cr, c.node, srv.node, req)
			err := sys.serve(child, srv, class, op.ops, op.bytes, sys.params.RPCCost*sim.Duration(op.ops), func() error {
				sh, err := sys.subfile(cr, i, h.path)
				if err != nil {
					return err
				}
				if write {
					sh.WriteVec(cr, op.vecs)
				} else {
					sh.ReadVec(cr, op.vecs)
				}
				return nil
			})
			if err != nil {
				errs = append(errs, err)
				return
			}
			resp := rpcHeaderBytes * op.ops
			if !write {
				resp += op.bytes
			}
			c.net.Send(cr, srv.node, c.node, resp)
		})
	}
	sim.Fork(r.Proc(), "pfs-xfer", fns...)
	if len(errs) > 0 {
		panic(fmt.Sprintf("pfs: subfile error: %v", errs[0]))
	}
	r.Observe(class, 1, total)
	return total
}

// WriteAt implements fs.Handle.
func (h *pfsHandle) WriteAt(r *ioreq.Request, off, n int64) int64 {
	h.check()
	if n == 0 {
		return 0
	}
	r.Enter(h.c.rec)
	defer r.Exit()
	put := h.transfer(r, h.stripeMap([]fs.IOVec{{Off: off, Len: n}}), true)
	h.grow(off + n)
	return put
}

// ReadAt implements fs.Handle.
func (h *pfsHandle) ReadAt(r *ioreq.Request, off, n int64) int64 {
	h.check()
	size := h.Size()
	if off >= size {
		return 0
	}
	if off+n > size {
		n = size - off
	}
	if n == 0 {
		return 0
	}
	r.Enter(h.c.rec)
	defer r.Exit()
	return h.transfer(r, h.stripeMap([]fs.IOVec{{Off: off, Len: n}}), false)
}

// WriteVec implements fs.Handle.
func (h *pfsHandle) WriteVec(r *ioreq.Request, vecs []fs.IOVec) int64 {
	h.check()
	if len(vecs) == 0 {
		return 0
	}
	r.Enter(h.c.rec)
	defer r.Exit()
	var maxEnd int64
	for _, v := range vecs {
		if end := v.Off + v.Len; end > maxEnd {
			maxEnd = end
		}
	}
	put := h.transfer(r, h.stripeMap(vecs), true)
	h.grow(maxEnd)
	return put
}

// ReadVec implements fs.Handle.
func (h *pfsHandle) ReadVec(r *ioreq.Request, vecs []fs.IOVec) int64 {
	h.check()
	size := h.Size()
	clamped := make([]fs.IOVec, 0, len(vecs))
	for _, v := range vecs {
		if v.Off >= size {
			continue
		}
		if v.Off+v.Len > size {
			v.Len = size - v.Off
		}
		if v.Len > 0 {
			clamped = append(clamped, v)
		}
	}
	if len(clamped) == 0 {
		return 0
	}
	r.Enter(h.c.rec)
	defer r.Exit()
	sort.Slice(clamped, func(i, j int) bool { return clamped[i].Off < clamped[j].Off })
	return h.transfer(r, h.stripeMap(clamped), false)
}

// grow extends the metadata size (monotonic).
func (h *pfsHandle) grow(end int64) {
	if end > h.c.sys.sizes[h.path] {
		h.c.sys.sizes[h.path] = end
	}
}

// Sync implements fs.Handle.
func (h *pfsHandle) Sync(r *ioreq.Request) {
	h.check()
	h.c.Sync(r)
}

// Close implements fs.Handle (metadata release).
func (h *pfsHandle) Close(r *ioreq.Request) {
	h.check()
	h.closed = true
	r.PushOn(h.c.rec)
	defer r.Pop()
	// A nil-op metadata RPC cannot fail; fs.Handle.Close has no
	// error to propagate anyway.
	_ = h.c.metaRPC(r, nil)
}
