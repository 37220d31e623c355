// Package synthplane mirrors the synthetic-workload engine's position
// in the stack for the analyzers: an application-layer package sits
// ABOVE the I/O library, so its exported entry points legitimately
// carry *sim.Proc (MPI-style rank procedures) — reqpath must stay
// quiet about them — while the determinism and errcheck contracts
// still bind it like every other internal package: spec compilation
// and trace inference feed byte-identical reports.
package synthplane

import (
	"fmt"
	"sort"
	"time"

	"fixture/internal/sim"
)

// Spec is a miniature workload spec.
type Spec struct {
	Phases map[string]int
}

// Run is the engine entry point: a proc parameter on an
// application-layer exported function is the MPI idiom, not a
// request-path violation.
func Run(p *sim.Proc, s *Spec) string { return p.Name() }

// rankStep is an unexported per-rank helper; also fine.
func rankStep(p *sim.Proc, iter int) {}

// ChainSorted collects the phase names deterministically: collect,
// then sort — the sanctioned idiom.
func ChainSorted(s *Spec) []string {
	var names []string
	for name := range s.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ChainUnsorted leaks map order into the returned chain: compiled
// phase order would differ run to run.
func ChainUnsorted(s *Spec) []string {
	var names []string
	for name := range s.Phases { // want determinism "never sorted afterwards"
		names = append(names, name)
	}
	return names
}

// FirstPhase picks "the" first phase from a map — a nondeterministic
// choice of workload entry point.
func FirstPhase(s *Spec) string {
	for name := range s.Phases { // want determinism "returns from inside the loop"
		return name
	}
	return ""
}

// StampSpec reads the wall clock into a spec artifact; replays would
// never be byte-identical.
func StampSpec(s *Spec) string {
	return fmt.Sprint(time.Now()) // want determinism "reads the wall clock"
}

// Validate rejects a spec with no phases.
func Validate(s *Spec) error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("spec has no phases")
	}
	return nil
}

// compileUnchecked drops Validate's verdict: a bad spec would run as
// if it were good.
func compileUnchecked(s *Spec) []string {
	Validate(s) // want errcheck "unchecked error"
	return ChainSorted(s)
}
