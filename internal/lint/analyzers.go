package lint

// DefaultAnalyzers returns the full suite; cmd/iolint runs exactly
// this set.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		LockDiscipline(),
		ErrCheck(),
		ProbeConform(),
		ReqPath(),
		SpanBalance(),
	}
}
