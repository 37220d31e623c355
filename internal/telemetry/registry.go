package telemetry

// Registry is an ordered collection of probes — typically every
// instrumented component of one cluster. Registration order is the
// report order, so snapshots are deterministic.
type Registry struct {
	probes []Probe
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds probes to the registry.
func (g *Registry) Register(ps ...Probe) { g.probes = append(g.probes, ps...) }

// Len returns the number of registered probes.
func (g *Registry) Len() int { return len(g.probes) }

// Snapshots observes every probe, in registration order.
func (g *Registry) Snapshots() []Snapshot {
	out := make([]Snapshot, 0, len(g.probes))
	for _, p := range g.probes {
		out = append(out, p.Snapshot())
	}
	return out
}

// Sub subtracts two snapshot sets position-wise (both must come from
// the same registry, cur observed at or after prev). Components
// present only in cur are passed through unchanged.
func Sub(cur, prev []Snapshot) []Snapshot {
	out := make([]Snapshot, 0, len(cur))
	byName := make(map[string]Snapshot, len(prev))
	for _, s := range prev {
		byName[s.Component] = s
	}
	for _, s := range cur {
		if p, ok := byName[s.Component]; ok {
			out = append(out, s.Sub(p))
		} else {
			out = append(out, s)
		}
	}
	return out
}

// ByLevel groups snapshots by level, preserving order within a group.
func ByLevel(snaps []Snapshot) map[Level][]Snapshot {
	out := map[Level][]Snapshot{}
	for _, s := range snaps {
		out[s.Level] = append(out[s.Level], s)
	}
	return out
}

// MeanUtilization returns the mean utilization of a snapshot group,
// guarding the empty-group case (no components ⇒ 0, not NaN).
func MeanUtilization(snaps []Snapshot) float64 {
	if len(snaps) == 0 {
		return 0
	}
	var sum float64
	for _, s := range snaps {
		sum += s.Utilization()
	}
	return sum / float64(len(snaps))
}
