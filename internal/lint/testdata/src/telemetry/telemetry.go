// Package telemetry is a miniature stand-in for the real telemetry
// plane — just enough surface (Recorder, Probe, Registry.Register)
// for the probeconform fixtures to type-check.
package telemetry

// Snapshot is one probe observation.
type Snapshot struct{ Component string }

// Probe is anything observable.
type Probe interface{ Snapshot() Snapshot }

// Recorder accumulates counters for one component.
type Recorder struct{ component string }

// Snapshot implements Probe.
func (r *Recorder) Snapshot() Snapshot { return Snapshot{Component: r.component} }

// Enter raises the recorder's concurrency gauge (span open).
func (r *Recorder) Enter() {}

// Exit lowers the gauge (span close).
func (r *Recorder) Exit() {}

// Observe records one report-plane value (a report-plane sink).
func Observe(v float64) {}

// Registry is an ordered probe collection.
type Registry struct{ probes []Probe }

// Register adds probes.
func (g *Registry) Register(ps ...Probe) { g.probes = append(g.probes, ps...) }
