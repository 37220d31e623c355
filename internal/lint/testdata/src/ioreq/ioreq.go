// Package ioreq is a miniature stand-in for the per-request context —
// enough surface (Request, Push/Pop, Enter/Exit) for the reqpath and
// spanbalance fixtures to type-check.
package ioreq

import (
	"fixture/internal/sim"
	"fixture/internal/telemetry"
)

// Request is a per-request context with a span stack.
type Request struct {
	p     *sim.Proc
	depth int
}

// Proc returns the executing process.
func (r *Request) Proc() *sim.Proc { return r.p }

// Push opens a span.
func (r *Request) Push(level int, comp string) { r.depth++ }

// Pop closes the current span.
func (r *Request) Pop() { r.depth-- }

// Enter opens a span bound to a component's recorder.
func (r *Request) Enter(rec *telemetry.Recorder) { r.depth++ }

// Exit closes a span opened by Enter.
func (r *Request) Exit() { r.depth-- }
