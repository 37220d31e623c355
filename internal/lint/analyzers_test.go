package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureLoader is shared across tests so the standard library is
// type-checked at most once per test process.
var (
	fixtureOnce sync.Once
	fixtureTree *Loader
)

func fixtures() *Loader {
	fixtureOnce.Do(func() {
		fixtureTree = NewTreeLoader("fixture/internal", filepath.Join("testdata", "src"))
	})
	return fixtureTree
}

// want is one expected diagnostic, parsed from a fixture comment of
// the form: // want <check> "substring"
type want struct {
	file    string
	line    int
	check   string
	substr  string
	matched bool
}

var wantRe = regexp.MustCompile(`want (\S+) "([^"]+)"`)

// collectWants extracts the expected-diagnostic annotations of a
// fixture package.
func collectWants(p *Package) []*want {
	var out []*want
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := p.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					out = append(out, &want{file: pos.Filename, line: pos.Line, check: m[1], substr: m[2]})
				}
			}
		}
	}
	return out
}

// checkFixture loads the fixture dirs, runs the analyzers through the
// full Runner (so suppression applies), and matches every diagnostic
// against the want annotations — both directions.
func checkFixture(t *testing.T, analyzers []*Analyzer, dirs ...string) {
	t.Helper()
	loader := fixtures()
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := loader.Load(dir)
		if err != nil {
			t.Fatalf("load fixture %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	runner := &Runner{Analyzers: analyzers}
	diags := runner.Run(pkgs)

	var wants []*want
	for _, p := range pkgs {
		wants = append(wants, collectWants(p)...)
	}
	for _, d := range diags {
		if w := matchWant(wants, d); w != nil {
			w.matched = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic: %s:%d: %s %q", w.file, w.line, w.check, w.substr)
		}
	}
}

// matchWant finds the first unmatched annotation the diagnostic
// satisfies.
func matchWant(wants []*want, d Diagnostic) *want {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line &&
			w.check == d.Check && strings.Contains(d.Message, w.substr) {
			return w
		}
	}
	return nil
}

func TestDeterminismAnalyzer(t *testing.T) {
	checkFixture(t, []*Analyzer{Determinism()}, "determinism")
}

// TestSeedFlowAnalyzer pins the wall-clock rule on laundered values:
// determinism reports the one time.Now read and none of the locals,
// helpers or sink parameters the value later flows through.
func TestSeedFlowAnalyzer(t *testing.T) {
	checkFixture(t, []*Analyzer{Determinism()}, "seedflow")
}

func TestLockDisciplineAnalyzer(t *testing.T) {
	checkFixture(t, []*Analyzer{LockDiscipline()}, "lockdiscipline")
}

func TestErrCheckAnalyzer(t *testing.T) {
	checkFixture(t, []*Analyzer{ErrCheck()}, "errcheck")
}

func TestReqPathAnalyzer(t *testing.T) {
	checkFixture(t, []*Analyzer{ReqPath(), SpanBalance()}, "cache")
}

func TestSpanBalanceAnalyzer(t *testing.T) {
	checkFixture(t, []*Analyzer{SpanBalance()}, "spanbalance")
}

// TestSynthPlaneFixture pins the analyzers' view of the synthetic-
// workload layer: reqpath must not flag *sim.Proc on application-layer
// entry points (the engine's Run/rank procedures are the MPI idiom),
// while determinism and errcheck still bind — phase chains must not
// leak map order and spec compile errors must not be dropped.
func TestSynthPlaneFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{ReqPath(), Determinism(), ErrCheck()}, "synthplane")
}

func TestProbeConformAnalyzer(t *testing.T) {
	checkFixture(t, []*Analyzer{ProbeConform()}, "telemetry", "device", "wiring")
}

// TestProbeConformWithoutWiring drops the registering package from
// the analysis set: the conforming Disk must then be reported as
// unregistered too.
func TestProbeConformWithoutWiring(t *testing.T) {
	loader := fixtures()
	dev, err := loader.Load("device")
	if err != nil {
		t.Fatal(err)
	}
	runner := &Runner{Analyzers: []*Analyzer{ProbeConform()}}
	diags := runner.Run([]*Package{dev})
	var diskFinding bool
	for _, d := range diags {
		if strings.Contains(d.Message, "device.Disk") && strings.Contains(d.Message, "never passed") {
			diskFinding = true
		}
	}
	if !diskFinding {
		t.Errorf("expected device.Disk to be reported unregistered without the wiring package; got:\n%s", formatDiags(diags))
	}
}

// TestCleanTree runs the full default suite over the real module: the
// committed tree must stay finding-free (the CI lint job enforces the
// same via cmd/iolint).
func TestCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check in -short mode")
	}
	loader, err := NewLoader(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, loadErrs := loader.LoadAll()
	for _, err := range loadErrs {
		t.Errorf("load: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("LoadAll found only %d packages; the walker is skipping real code", len(pkgs))
	}
	runner := &Runner{Analyzers: DefaultAnalyzers()}
	if diags := runner.Run(pkgs); len(diags) > 0 {
		t.Errorf("the tree must be iolint-clean; got %d finding(s):\n%s", len(diags), formatDiags(diags))
	}
}

func formatDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}
