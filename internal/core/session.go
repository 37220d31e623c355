package core

import (
	"fmt"
	"sync"

	"ioeval/internal/cluster"
	"ioeval/internal/fault"
	"ioeval/internal/workload"
)

// Session is the one option-based entry point to the methodology: it
// binds a configuration (a cluster builder), the characterization
// parameters, an optional fault plan and optional requirements, and
// strings the paper's three phases together. Characterization is
// computed on first use and cached, so many applications can be
// evaluated against one Session cheaply; with a fault plan set, Run
// evaluates the application both healthy and under the scenario and
// reports the used-% tables side by side. With a store attached
// (WithStore), characterization is looked up by content fingerprint
// before being measured, and written back on a miss — warm sessions
// skip the expensive phase entirely.
//
// Session is the sole entry point to the methodology: the former
// Characterize/Evaluate/Methodology surface was removed in its favor.
type Session struct {
	build   func() *cluster.Cluster
	charCfg CharacterizeConfig
	plan    *fault.Plan
	reqs    *Requirements
	preset  *Characterization // preloaded tables (WithCharacterization)
	store   CharStore
	pool    *CharPool // nil = sequential characterization

	charOnce sync.Once
	char     *Characterization
	charErr  error
}

// CharStore is a persistent characterization cache keyed by content
// fingerprint (see Fingerprint). GetOrCompute returns the stored
// characterization for the fingerprint, or calls compute to fill the
// entry. Callers ask once per fingerprint at a time — a Session
// resolves its characterization once, the sweep engine once per
// fingerprint — so an implementation need not deduplicate concurrent
// fills. internal/store provides the on-disk implementation; the
// interface lives here so core does not depend on the store's
// mechanics.
type CharStore interface {
	GetOrCompute(fingerprint string, compute func() (*Characterization, error)) (*Characterization, error)
}

// SessionOption configures a Session at construction.
type SessionOption func(*Session)

// WithCharacterizeConfig sets the characterization-phase parameters
// (the zero value uses the paper's defaults).
func WithCharacterizeConfig(cfg CharacterizeConfig) SessionOption {
	return func(s *Session) { s.charCfg = cfg }
}

// WithFaultPlan arms a fault scenario on the session: Run evaluates
// every application under the plan alongside the healthy baseline,
// and EvaluateScenario becomes available. An empty plan (no events)
// is ignored.
func WithFaultPlan(plan fault.Plan) SessionOption {
	return func(s *Session) {
		if !plan.Empty() {
			s.plan = &plan
		}
	}
}

// WithRequirements checks every evaluation against the requirements.
func WithRequirements(req Requirements) SessionOption {
	return func(s *Session) { s.reqs = &req }
}

// WithCharacterization seeds the session with an existing
// characterization (e.g. loaded from disk), skipping the expensive
// measurement phase.
func WithCharacterization(ch *Characterization) SessionOption {
	return func(s *Session) { s.preset = ch }
}

// WithStore attaches a persistent characterization store: the session
// consults it (by content fingerprint) before characterizing and
// writes the result back on a miss. A nil store is ignored.
func WithStore(st CharStore) SessionOption {
	return func(s *Session) { s.store = st }
}

// WithCharacterizeWorkers runs the characterization phase's
// measurement units on up to n concurrent workers (n <= 0 sizes the
// pool to GOMAXPROCS, n == 1 is the sequential default without the
// option). The merged tables are byte-identical at any worker count —
// every unit runs on its own fresh cluster and results merge in
// canonical plan order — and the content fingerprint is unaffected,
// so parallel and sequential sessions share store entries. With n > 1
// the session's cluster builder must be safe for concurrent use.
func WithCharacterizeWorkers(n int) SessionOption {
	return func(s *Session) { s.pool = NewCharPool(n) }
}

// WithCharacterizePool shares an existing worker pool across sessions
// (sweep runs every cell's characterization on one engine-wide pool
// instead of nesting a pool per cell). A nil pool means sequential.
func WithCharacterizePool(p *CharPool) SessionOption {
	return func(s *Session) { s.pool = p }
}

// NewSession creates a session for the configuration produced by
// build, which must return a fresh cluster per call.
func NewSession(build func() *cluster.Cluster, opts ...SessionOption) *Session {
	s := &Session{build: build}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Scenario returns the name of the session's fault scenario, or ""
// when none is armed.
func (s *Session) Scenario() string {
	if s.plan == nil {
		return ""
	}
	return s.plan.Name
}

// FaultPlan returns a copy of the armed fault plan and whether one is
// set.
func (s *Session) FaultPlan() (fault.Plan, bool) {
	if s.plan == nil {
		return fault.Plan{}, false
	}
	return *s.plan, true
}

// Characterization returns (computing once) the configuration's
// performance tables. Safe for concurrent use: single-flight via
// sync.Once, so parallel studies sharing a Session never race to
// characterize, and the first outcome — including an error — is
// cached for the session's lifetime.
func (s *Session) Characterization() (*Characterization, error) {
	if s.preset != nil {
		return s.preset, nil
	}
	if s.build == nil {
		return nil, fmt.Errorf("core: Session needs a cluster builder")
	}
	s.charOnce.Do(func() {
		compute := func() (*Characterization, error) { return characterize(s.build, s.charCfg, s.pool) }
		if s.store == nil {
			s.char, s.charErr = compute()
			return
		}
		fp, err := Fingerprint(s.build, s.charCfg)
		if err != nil {
			s.charErr = err
			return
		}
		s.char, s.charErr = s.store.GetOrCompute(fp, compute)
	})
	return s.char, s.charErr
}

// buildScenario returns a fresh cluster with the session's fault plan
// armed.
func (s *Session) buildScenario() (*cluster.Cluster, error) {
	c := s.build()
	if _, err := fault.Apply(c, *s.plan); err != nil {
		return nil, err
	}
	return c, nil
}

// Evaluate runs the application on a healthy cluster against the
// session's characterization.
func (s *Session) Evaluate(app workload.App) (*Evaluation, error) {
	ch, err := s.Characterization()
	if err != nil {
		return nil, err
	}
	if s.build == nil {
		return nil, fmt.Errorf("core: Session needs a cluster builder")
	}
	return evaluate(s.build(), app, ch)
}

// EvaluateScenario runs the application under the session's fault
// plan against the (healthy) characterization: the used-% rows then
// show how much of the characterized capacity survives the scenario.
func (s *Session) EvaluateScenario(app workload.App) (*Evaluation, error) {
	if s.plan == nil {
		return nil, fmt.Errorf("core: session has no fault plan (use WithFaultPlan)")
	}
	ch, err := s.Characterization()
	if err != nil {
		return nil, err
	}
	if s.build == nil {
		return nil, fmt.Errorf("core: Session needs a cluster builder")
	}
	c, err := s.buildScenario()
	if err != nil {
		return nil, err
	}
	return evaluateScenario(c, app, ch, s.plan.Name)
}

// Run executes all three phases for the application: configuration
// analysis, characterization, and evaluation — plus, when a fault
// plan is armed, a second evaluation under the scenario, reported
// side by side with the healthy one.
func (s *Session) Run(app workload.App) (*Report, error) {
	ch, err := s.Characterization()
	if err != nil {
		return nil, err
	}
	if s.build == nil {
		return nil, fmt.Errorf("core: Session needs a cluster builder")
	}
	c := s.build()
	analysis := AnalyzeConfiguration(c)
	ev, err := evaluate(c, app, ch)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Characterization: ch,
		ConfigAnalysis:   analysis,
		Evaluation:       ev,
		Utilization:      c.UtilizationReport(),
	}
	if s.reqs != nil {
		rep.Checks = CheckEvaluation(*s.reqs, ev)
	}
	if s.plan != nil {
		dc, err := s.buildScenario()
		if err != nil {
			return nil, err
		}
		dev, err := evaluateScenario(dc, app, ch, s.plan.Name)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.plan.Name, err)
		}
		rep.Scenario = s.plan.Name
		rep.Degraded = dev
		rep.DegradedUtilization = dc.UtilizationReport()
		if s.reqs != nil {
			rep.DegradedChecks = CheckEvaluation(*s.reqs, dev)
		}
	}
	return rep, nil
}
