package lint

import (
	"path/filepath"
	"testing"
)

// BenchmarkLintModule prices a whole-repo iolint run: everything after
// loading (analyzer passes and suppression), as a fresh CLI run pays
// it.
func BenchmarkLintModule(b *testing.B) {
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		b.Fatal(err)
	}
	pkgs, loadErrs := loader.LoadAll()
	if len(loadErrs) > 0 {
		b.Fatalf("load: %v", loadErrs[0])
	}
	if len(pkgs) < 20 {
		b.Fatalf("LoadAll found only %d packages", len(pkgs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner := &Runner{Analyzers: DefaultAnalyzers()}
		if diags := runner.Run(pkgs); len(diags) > 0 {
			b.Fatalf("tree not clean: %d finding(s)", len(diags))
		}
	}
}
