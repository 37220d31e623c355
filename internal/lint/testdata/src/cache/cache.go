// Package cache exercises the reqpath analyzer: it is one of the
// below-library layer packages whose exported entry points must be
// request-threaded and whose spans must balance.
package cache

import (
	"fixture/internal/ioreq"
	"fixture/internal/sim"
)

// Cache is a fixture layer component.
type Cache struct{ name string }

// ReadAt is correctly request-threaded and balances its span.
func (c *Cache) ReadAt(r *ioreq.Request, off, n int64) int64 {
	r.Push(3, c.name)
	defer r.Pop()
	return n
}

// WriteAt still takes a bare proc: the request context (spans, op
// class, fault tags) is lost below this point.
func (c *Cache) WriteAt(p *sim.Proc, off, n int64) int64 { // want reqpath "takes a *sim.Proc"
	return n
}

// Flush opens a span but forgets to close it.
func (c *Cache) Flush(r *ioreq.Request) {
	r.Push(3, c.name) // want spanbalance "not closed by a defer"
	c.Resize(0)
}

// Drop closes inside a deferred literal that follows the open, which
// closes the span on every exit.
func (c *Cache) Drop(r *ioreq.Request) {
	r.Push(3, c.name)
	defer func() { r.Pop() }()
}

// evict is unexported: internal helpers may carry procs (the span
// contract binds the package boundary, not every private function).
func (c *Cache) evict(p *sim.Proc, n int64) int64 { return n }

// Resize takes no proc at all and is out of scope.
func (c *Cache) Resize(n int64) {}
