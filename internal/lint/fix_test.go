package lint

import (
	"bytes"
	"go/format"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixHarness builds a FileSet over an in-memory source file and
// returns a position mapper plus a readFile stub for ApplyFixes.
func fixHarness(src string) (fset *token.FileSet, pos func(off int) token.Pos, read func(string) ([]byte, error)) {
	fset = token.NewFileSet()
	f := fset.AddFile("fix.go", -1, len(src))
	f.SetLinesForContent([]byte(src))
	pos = func(off int) token.Pos { return f.Pos(off) }
	read = func(string) ([]byte, error) { return []byte(src), nil }
	return fset, pos, read
}

func fixDiag(pos func(int) token.Pos, start, end int, text string) Diagnostic {
	return withFix(Diagnostic{Check: "test"}, "test fix",
		TextEdit{Pos: pos(start), End: pos(end), NewText: text})
}

func TestApplyFixesReplacement(t *testing.T) {
	src := "package p\n\nvar x = 1\n"
	fset, pos, read := fixHarness(src)
	off := strings.Index(src, "1")
	res, err := ApplyFixes(fset, []Diagnostic{fixDiag(pos, off, off+1, "2")}, read)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(res.Files["fix.go"]), "package p\n\nvar x = 2\n"; got != want {
		t.Errorf("fixed content = %q, want %q", got, want)
	}
	if res.Applied != 1 {
		t.Errorf("Applied = %d, want 1", res.Applied)
	}
}

func TestApplyFixesInsertion(t *testing.T) {
	src := "package p\n\nfunc f() {\n\topen()\n}\n"
	fset, pos, read := fixHarness(src)
	off := strings.Index(src, "open()") + len("open()")
	res, err := ApplyFixes(fset, []Diagnostic{fixDiag(pos, off, off, "\n\tdefer close()")}, read)
	if err != nil {
		t.Fatal(err)
	}
	want := "package p\n\nfunc f() {\n\topen()\n\tdefer close()\n}\n"
	if got := string(res.Files["fix.go"]); got != want {
		t.Errorf("fixed content = %q, want %q", got, want)
	}
}

// TestApplyFixesDedupe pins that two findings proposing the byte-same
// edit are folded, not refused as overlapping.
func TestApplyFixesDedupe(t *testing.T) {
	src := "package p\n\nvar x = 1\n"
	fset, pos, read := fixHarness(src)
	off := strings.Index(src, "1")
	d := fixDiag(pos, off, off+1, "2")
	res, err := ApplyFixes(fset, []Diagnostic{d, d}, read)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(res.Files["fix.go"]), "package p\n\nvar x = 2\n"; got != want {
		t.Errorf("fixed content = %q, want %q", got, want)
	}
}

// TestApplyFixesRefusesOverlap pins the dirty-overlap contract: two
// different edits touching the same bytes reject the whole run.
func TestApplyFixesRefusesOverlap(t *testing.T) {
	src := "package p\n\nvar x = 100\n"
	fset, pos, read := fixHarness(src)
	off := strings.Index(src, "100")
	diags := []Diagnostic{
		fixDiag(pos, off, off+2, "2"),
		fixDiag(pos, off+1, off+3, "3"),
	}
	if _, err := ApplyFixes(fset, diags, read); err == nil || !strings.Contains(err.Error(), "refusing overlapping fixes") {
		t.Errorf("overlapping edits must be refused, got err=%v", err)
	}
}

func TestApplyFixesNoFixes(t *testing.T) {
	fset, _, read := fixHarness("package p\n")
	res, err := ApplyFixes(fset, []Diagnostic{{Check: "test", Message: "no fix attached"}}, read)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 || len(res.Files) != 0 {
		t.Errorf("fixless diagnostics must produce an empty result, got %+v", res)
	}
}

// copyTree clones a fixture tree into dst so fixes can be applied on
// disk without touching the committed testdata.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(dp, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyFixesRoundTrip is the end-to-end -fix contract on each
// all-fixable fixture package: every finding carries a fix, the
// rewritten files are gofmt-clean, and a re-lint over the fixed tree
// reports zero findings (so a second -fix run is a no-op).
func TestApplyFixesRoundTrip(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer func() *Analyzer
	}{
		{"spanbalancefix", SpanBalance},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			tmp := t.TempDir()
			copyTree(t, filepath.Join("testdata", "src"), tmp)
			loader := NewTreeLoader("fixture/internal", tmp)
			p, err := loader.Load(tc.dir)
			if err != nil {
				t.Fatal(err)
			}
			runner := &Runner{Analyzers: []*Analyzer{tc.analyzer()}}
			diags := runner.Run([]*Package{p})
			if len(diags) == 0 {
				t.Fatal("fixture produced no findings")
			}
			for _, d := range diags {
				if len(d.Fixes) == 0 {
					t.Errorf("finding without a fix: %s", d)
				}
			}
			res, err := ApplyFixes(p.Fset, diags, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Files) == 0 {
				t.Fatal("ApplyFixes rewrote no files")
			}
			for name, content := range res.Files {
				formatted, err := format.Source(content)
				if err != nil {
					t.Fatalf("fixed %s does not parse: %v", name, err)
				}
				if !bytes.Equal(formatted, content) {
					t.Errorf("fixed %s is not gofmt-clean", name)
				}
				if err := os.WriteFile(name, content, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			reload := NewTreeLoader("fixture/internal", tmp)
			p2, err := reload.Load(tc.dir)
			if err != nil {
				t.Fatalf("fixed package does not load: %v", err)
			}
			diags2 := (&Runner{Analyzers: []*Analyzer{tc.analyzer()}}).Run([]*Package{p2})
			if len(diags2) != 0 {
				t.Errorf("fixed package still has findings:\n%s", formatDiags(diags2))
			}
		})
	}
}
