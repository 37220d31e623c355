package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestListExitsZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("-list exit code = %d, want 0 (stderr: %s)", code, errw.String())
	}
	for _, name := range []string{
		"determinism", "lockdiscipline", "errcheck",
		"probeconform", "reqpath", "spanbalance",
	} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output lacks analyzer %q", name)
		}
	}
	for _, retired := range []string{"unitsafety", "seedflow", "unitflow"} {
		if strings.Contains(out.String(), retired) {
			t.Errorf("-list still mentions the retired %s analyzer", retired)
		}
	}
}

// TestFixtureFindingsExitOne runs the CLI against a fixture package:
// it must exit 1 and print position-accurate file:line:col findings.
func TestFixtureFindingsExitOne(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"internal/lint/testdata/src/determinism"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s, stdout: %s)", code, errw.String(), out.String())
	}
	posRe := regexp.MustCompile(`determinism\.go:\d+:\d+: determinism: call to time\.Now`)
	if !posRe.MatchString(out.String()) {
		t.Errorf("output lacks a position-accurate time.Now finding:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "finding(s)") {
		t.Errorf("output lacks the findings summary:\n%s", out.String())
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"internal/stats"}, &out, &errw); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean package should print nothing, got:\n%s", out.String())
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"no/such/package"}, &out, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "iolint:") {
		t.Errorf("load errors must be reported on stderr, got: %s", errw.String())
	}
}

// chdir moves the process into dir for the duration of the test (the
// CLI resolves the module root from the working directory).
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParseErrorExitsTwo pins the load-failure contract: a module
// whose source does not parse must exit 2 (analysis did not cover the
// tree), never 0 — a partial analysis must not masquerade as clean.
func TestParseErrorExitsTwo(t *testing.T) {
	tmp := t.TempDir()
	writeFile := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(tmp, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile("go.mod", "module brokenmod\n\ngo 1.22\n")
	writeFile("broken.go", "package brokenmod\n\nfunc f( {\n")
	chdir(t, tmp)

	var out, errw strings.Builder
	if code := run([]string{"./..."}, &out, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errw.String())
	}
	if !strings.Contains(errw.String(), "iolint:") {
		t.Errorf("parse errors must be reported on stderr, got: %s", errw.String())
	}
}

// TestJSONFindings pins the machine-readable output CI annotates
// from: an array of objects with file/line/col/check/message/fixable.
func TestJSONFindings(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-json", "internal/lint/testdata/src/determinism"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, errw.String())
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Col     int    `json:"col"`
		Check   string `json:"check"`
		Message string `json:"message"`
		Fixable bool   `json:"fixable"`
	}
	if err := json.Unmarshal([]byte(out.String()), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json reported no findings for the determinism fixture")
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Col == 0 || f.Check == "" || f.Message == "" {
			t.Errorf("finding with empty fields: %+v", f)
		}
		if filepath.IsAbs(f.File) {
			t.Errorf("finding path %q is absolute, want module-relative", f.File)
		}
	}
}

// TestJSONCleanIsEmptyArray pins that a clean run emits [] (never
// null), so `jq '.[]'` works unconditionally in CI.
func TestJSONCleanIsEmptyArray(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-json", "internal/stats"}, &out, &errw); code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, errw.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}
