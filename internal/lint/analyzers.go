package lint

import "strings"

// DefaultAnalyzers returns the full suite with its production scope
// filters applied: determinism is enforced inside internal/ (the
// simulated stack and its report plane), everything else runs
// module-wide. cmd/iolint runs exactly this set.
func DefaultAnalyzers() []*Analyzer {
	det := Determinism()
	det.AppliesTo = isInternal
	return []*Analyzer{
		det,
		LockDiscipline(),
		ErrCheck(),
		UnitFlow(),
		ProbeConform(),
		ReqPath(),
		SpanBalance(),
		SeedFlow(),
		FaultPlan(),
	}
}

// isInternal reports whether the import path lies under an internal/
// tree.
func isInternal(pkgPath string) bool {
	return strings.Contains(pkgPath+"/", "/internal/") || strings.HasPrefix(pkgPath, "internal/")
}
