// Package fault is a miniature stand-in for the fault-injection
// plane — enough surface (Plan, Event, Kind, Apply) for the
// faultplan fixtures to type-check and for the analyzer to check it
// the same way it does the real module.
package fault

// Kind is the fault class of one event.
type Kind int

// Fault kinds.
const (
	DiskFail Kind = iota
	NetFlap
	NFSStall
)

// Event is one scheduled fault.
type Event struct {
	At       int64
	Kind     Kind
	Factor   float64
	Duration int64
}

// Plan is a named, seeded schedule of faults.
type Plan struct {
	Name   string
	Seed   int64
	Events []Event
}

// Cluster is the arming target.
type Cluster struct{}

// Injector is an armed plan.
type Injector struct{ plan Plan }

// Apply arms the plan on the cluster (stores it — the base consumer
// every forwarding chain ends in).
func Apply(c *Cluster, pl Plan) *Injector {
	return &Injector{plan: pl}
}
