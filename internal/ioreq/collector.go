package ioreq

import (
	"ioeval/internal/sim"
	"ioeval/internal/telemetry"
)

// Collector aggregates the spans of completed requests into a
// telemetry.PathProfile. It is strictly passive and nil-safe: a nil
// *Collector discards everything, so requests can be built without an
// aggregation plane (unit tests, MPI communication that is not I/O).
type Collector struct {
	prof telemetry.PathProfile
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// record folds one popped span into the profile.
func (c *Collector) record(s *span, class telemetry.OpClass, busy, self sim.Duration) {
	if c == nil {
		return
	}
	c.prof.Observe(s.rec.Level(), class, busy, self, s.parent == nil, s.remote())
}

// tag counts a fault-plane mark.
func (c *Collector) tag(name string) {
	if c == nil {
		return
	}
	c.prof.AddTag(name)
}

// Profile returns a copy of the aggregated profile.
func (c *Collector) Profile() telemetry.PathProfile {
	if c == nil {
		return telemetry.PathProfile{}
	}
	out := c.prof
	if len(c.prof.Tags) > 0 {
		out.Tags = make(map[string]int64, len(c.prof.Tags))
		for k, v := range c.prof.Tags {
			out.Tags[k] = v
		}
	}
	return out
}

// Reset clears the aggregated profile (phase-interval measurement
// re-arms the collector between phases).
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	c.prof = telemetry.PathProfile{}
}
