package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "a/b.go", Line: 12, Column: 3},
		Check:   "determinism",
		Message: "call to time.Now",
	}
	want := "a/b.go:12:3: determinism: call to time.Now"
	if got := d.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// suppressLines locates the fixture's marker lines by source text, so
// the test does not hard-code line numbers.
func suppressLines(t *testing.T) (file string, markers map[string]int) {
	t.Helper()
	file = filepath.Join("testdata", "src", "suppress", "suppress.go")
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	markers = map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		for _, m := range []string{
			"unsuppressed-wrong-check",
			"unsuppressed-malformed",
			"unsuppressed-far-away",
		} {
			if strings.Contains(line, m) {
				markers[m] = i + 1
			}
		}
		if strings.TrimSpace(line) == "//lint:ignore determinism" {
			markers["malformed-directive"] = i + 1
		}
		if strings.Contains(line, "too far from the finding") {
			markers["far-away-directive"] = i + 1
		}
		if strings.Contains(line, "the wall clock is the finding under test") {
			markers["multi-finding"] = i + 1
		}
	}
	if len(markers) != 6 {
		t.Fatalf("fixture markers incomplete: %v", markers)
	}
	return file, markers
}

// TestSuppression drives the //lint:ignore mechanism end to end:
// well-formed directives (above-line and same-line) silence exactly
// the named check's findings on exactly their target line, a
// directive for another check does not, a reason-less directive is
// reported under the "directive" check, and a well-formed directive
// that suppresses nothing is reported under "directive-unused". The
// multi-finding line pins the per-check scoping: one line carrying a
// determinism and an errcheck finding keeps the determinism one when
// the directive names errcheck.
func TestSuppression(t *testing.T) {
	file, markers := suppressLines(t)
	p, err := fixtures().Load("suppress")
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Analyzers: []*Analyzer{Determinism(), ErrCheck()}}
	diags := runner.Run([]*Package{p})

	got := map[string][]int{}
	for _, d := range diags {
		if d.Pos.Filename != file {
			t.Errorf("diagnostic outside fixture: %s", d)
		}
		got[d.Check] = append(got[d.Check], d.Pos.Line)
	}

	wantDet := []int{
		markers["unsuppressed-wrong-check"],
		markers["unsuppressed-malformed"],
		markers["unsuppressed-far-away"],
		markers["multi-finding"],
	}
	if !equalInts(got[DeterminismCheck], wantDet) {
		t.Errorf("determinism findings on lines %v, want %v", got[DeterminismCheck], wantDet)
	}
	if len(got[ErrCheckCheck]) != 0 {
		t.Errorf("errcheck findings on lines %v; the multi-finding directive should suppress them", got[ErrCheckCheck])
	}
	if !equalInts(got[DirectiveCheck], []int{markers["malformed-directive"]}) {
		t.Errorf("directive findings on lines %v, want [%d]", got[DirectiveCheck], markers["malformed-directive"])
	}
	if !equalInts(got[DirectiveUnusedCheck], []int{markers["far-away-directive"]}) {
		t.Errorf("directive-unused findings on lines %v, want [%d]", got[DirectiveUnusedCheck], markers["far-away-directive"])
	}
	if extra := len(diags) - len(wantDet) - 2; extra != 0 {
		t.Errorf("%d unexpected extra diagnostics:\n%s", extra, formatDiags(diags))
	}
}

// TestUnusedDirectiveInactiveCheck pins the gating: a directive for a
// check the runner did not execute must not be reported as unused —
// the wrong-check directive names spanbalance, and spanbalance is not
// in the analyzer set above.
func TestUnusedDirectiveInactiveCheck(t *testing.T) {
	_, markers := suppressLines(t)
	p, err := fixtures().Load("suppress")
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Analyzers: []*Analyzer{Determinism(), ErrCheck()}}
	for _, d := range runner.Run([]*Package{p}) {
		if d.Check == DirectiveUnusedCheck && d.Pos.Line != markers["far-away-directive"] {
			t.Errorf("unexpected directive-unused finding: %s", d)
		}
	}
}

// TestSuppressionMessage pins the malformed-directive message so the
// fix-it hint stays intact.
func TestSuppressionMessage(t *testing.T) {
	p, err := fixtures().Load("suppress")
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Analyzers: []*Analyzer{Determinism()}}
	for _, d := range runner.Run([]*Package{p}) {
		if d.Check == DirectiveCheck {
			if !strings.Contains(d.Message, "//lint:ignore <check> <reason>") {
				t.Errorf("malformed-directive message %q lacks the expected form hint", d.Message)
			}
			return
		}
	}
	t.Error("no directive finding produced")
}

func TestLoaderRejectsMissingDir(t *testing.T) {
	if _, err := fixtures().Load("no-such-fixture"); err == nil {
		t.Error("loading a missing directory should fail")
	}
}

// TestLoaderHonoursBuildConstraints: of a constant split across a
// //go:build race file and a //go:build !race file, the loader
// type-checks only the plain-build side, as go build does, instead of
// reporting it redeclared.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"race.go":   "//go:build race\n\npackage tags\n\nconst Enabled = true\n",
		"norace.go": "//go:build !race\n\npackage tags\n\nconst Enabled = false\n",
	}
	for name, src := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewTreeLoader("example.com/tags", dir).Load(".")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(p.Files) != 1 || p.Fset.Position(p.Files[0].Pos()).Filename != filepath.Join(dir, "norace.go") {
		t.Errorf("loaded %d files, want only norace.go", len(p.Files))
	}
}

// TestRunnerOrderDeterministic shuffles nothing but runs twice: the
// diagnostics of the suite over a fixture must be byte-identical
// (the sorter is part of the contract this tool preaches).
func TestRunnerOrderDeterministic(t *testing.T) {
	p, err := fixtures().Load("determinism")
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Analyzers: []*Analyzer{Determinism(), ErrCheck(), LockDiscipline()}}
	a := formatDiags(runner.Run([]*Package{p}))
	b := formatDiags(runner.Run([]*Package{p}))
	if a != b {
		t.Errorf("two runs differ:\n%s\nvs\n%s", a, b)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
