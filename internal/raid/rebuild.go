package raid

import (
	"fmt"
	"sort"

	"ioeval/internal/device"
	"ioeval/internal/ioreq"
	"ioeval/internal/sim"
)

// Rebuild: after a member failure a redundant array reconstructs the
// lost contents onto a replacement drive while continuing to serve
// application I/O. The rebuild stream competes with foreground
// requests on the surviving spindles — the performance cliff the
// methodology must be able to measure, since "which configuration
// satisfies the application?" has a different answer while an array
// is resilvering.

// RebuildConfig parameterizes one rebuild pass.
type RebuildConfig struct {
	// Bytes limits how much of the failed member is reconstructed; 0
	// rebuilds the full member extent. A partial rebuild leaves the
	// array degraded (useful to bound scenario runtime).
	Bytes int64
	// Chunk is the per-step reconstruction extent; 0 defaults to 1 MiB.
	Chunk int64
	// Rate throttles the rebuild to at most this many reconstructed
	// bytes per second (the md sync_speed_max knob); 0 is unthrottled.
	Rate float64
}

// FailedMembers returns the indices of failed members in ascending
// order (empty on a healthy array).
func (a *Array) FailedMembers() []int {
	out := make([]int, 0, len(a.failed))
	for i := range a.failed {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// Rebuild reconstructs the single failed member's contents onto spare
// and — when the full extent was rebuilt — swaps spare in as the new
// member, returning the array to healthy service. It blocks p for the
// whole pass: callers run it on a dedicated spawned process so it
// overlaps foreground I/O. The reconstruction reads the survivors
// (the healthy mirror on RAID 1; every surviving disk of the row on
// RAID 5) and writes the result to spare, chunk by chunk.
//
//lint:ignore reqpath rebuild is the maintenance plane, not a request path: its I/O belongs to no application request, so there is no span stack or op class to thread
func (a *Array) Rebuild(p *sim.Proc, spare device.BlockDev, cfg RebuildConfig) error {
	if a.level != RAID1 && a.level != RAID5 {
		return fmt.Errorf("raid %q: %v does not rebuild", a.name, a.level)
	}
	failed := a.FailedMembers()
	if len(failed) != 1 {
		return fmt.Errorf("raid %q: rebuild needs exactly one failed member, have %d", a.name, len(failed))
	}
	idx := failed[0]

	extent := minCap(a.members)
	if spare.Capacity() < extent {
		return fmt.Errorf("raid %q: spare %q (%d bytes) smaller than member extent %d",
			a.name, spare.Name(), spare.Capacity(), extent)
	}
	total := extent
	if cfg.Bytes > 0 && cfg.Bytes < total {
		total = cfg.Bytes
	}
	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = 1 << 20
	}

	a.rec.Add(kRebuildsStarted, 1)
	r := ioreq.Writer(p)
	start := p.Now()
	for done := int64(0); done < total; {
		n := min(chunk, total-done)
		off := done
		a.reconstructChunk(r, idx, off, n)
		spare.WriteAt(r, off, n)
		done += n
		a.rec.Add(kRebuildBytes, n)
		if cfg.Rate > 0 {
			// Pace: never run ahead of the configured rebuild rate.
			target := sim.DurationFromSeconds(float64(done) / cfg.Rate)
			if el := sim.Duration(p.Now() - start); el < target {
				p.Sleep(target - el)
			}
		}
	}

	if total < extent {
		return nil // partial pass: array stays degraded
	}
	a.members[idx] = spare
	delete(a.failed, idx)
	a.rec.Add(kRebuildsCompleted, 1)
	return nil
}

// reconstructChunk reads the data needed to recompute one extent of
// the failed member idx from the survivors.
func (a *Array) reconstructChunk(r *ioreq.Request, idx int, off, n int64) {
	switch a.level {
	case RAID1:
		a.members[a.healthyMirror()].ReadAt(r, off, n)
	case RAID5:
		// The lost chunk is the XOR of the same physical extent on
		// every surviving member (data or parity alike); read them in
		// parallel, the XOR itself is free.
		a.readSurvivors(r, idx, off, n, "rebuild")
	}
}
