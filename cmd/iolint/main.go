// Command iolint runs the repo-native static-analysis suite
// (internal/lint) over the module: determinism (wall clock, global
// rand, map order), lock discipline, unchecked errors,
// telemetry-probe conformance, request-path signatures and
// defer-shaped span balance — the invariants behind the
// methodology's byte-identical reports.
//
// Usage:
//
//	go run ./cmd/iolint ./...          # whole module
//	go run ./cmd/iolint internal/core  # specific package directories
//	go run ./cmd/iolint -list          # describe the analyzers
//	go run ./cmd/iolint -json ./...    # findings as a JSON array
//	go run ./cmd/iolint -fix ./...     # apply suggested fixes in place
//
// Exit codes are a contract CI relies on: 0 on a clean tree, 1 when
// findings are reported, 2 on usage errors or when any package fails
// to parse or type-check (load errors win over findings — a partial
// analysis must never masquerade as a mostly-clean one). With -fix,
// fixable findings are applied and only remaining findings count.
// Findings can be suppressed at the site with
// `//lint:ignore <check> <reason>`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ioeval/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI against args, writing findings to out and
// errors to errw, and returns the process exit code.
func run(args []string, out, errw io.Writer) int {
	flags := flag.NewFlagSet("iolint", flag.ContinueOnError)
	flags.SetOutput(errw)
	list := flags.Bool("list", false, "list the analyzers and the invariants they enforce")
	asJSON := flags.Bool("json", false, "emit findings as a JSON array (file/line/col/check/message/fixable)")
	fix := flags.Bool("fix", false, "apply suggested fixes in place, then report what remains")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	analyzers := lint.DefaultAnalyzers()
	if *list {
		for _, az := range analyzers {
			report(out, "%s\n\t%s\n", az.Name, az.Doc)
		}
		return 0
	}

	modDir, err := findModuleRoot()
	if err != nil {
		report(errw, "iolint: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(modDir)
	if err != nil {
		report(errw, "iolint: %v\n", err)
		return 2
	}
	pkgs, loadErrs := loadPatterns(loader, flags.Args())
	for _, e := range loadErrs {
		report(errw, "iolint: %v\n", e)
	}
	if len(pkgs) == 0 && len(loadErrs) > 0 {
		return 2
	}

	runner := &lint.Runner{Analyzers: analyzers}
	diags := runner.Run(pkgs)
	if *fix {
		var err error
		diags, err = applyFixes(modDir, pkgs, runner, diags, out)
		if err != nil {
			report(errw, "iolint: %v\n", err)
			return 2
		}
	}
	if *asJSON {
		emitJSON(out, diags, modDir)
	} else {
		for _, d := range diags {
			report(out, "%s\n", relativize(d, modDir))
		}
		if len(diags) > 0 {
			report(out, "iolint: %d finding(s)\n", len(diags))
		}
	}
	// Load errors dominate findings: exit 2 says "the analysis did not
	// cover the tree", which is worse news than any finding.
	if len(loadErrs) > 0 {
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// applyFixes writes every suggested fix to disk and re-runs the
// analysis on the fixed tree so the caller reports (and exits on)
// only what remains. The loader caches packages in memory, so the
// re-run needs a fresh loader over the fixed files.
func applyFixes(modDir string, pkgs []*lint.Package, runner *lint.Runner, diags []lint.Diagnostic, out io.Writer) ([]lint.Diagnostic, error) {
	if len(pkgs) == 0 {
		return diags, nil
	}
	res, err := lint.ApplyFixes(pkgs[0].Fset, diags, nil)
	if err != nil {
		return nil, err
	}
	if res.Applied == 0 {
		return diags, nil
	}
	files := make([]string, 0, len(res.Files))
	for name := range res.Files {
		files = append(files, name)
	}
	sort.Strings(files)
	for _, name := range files {
		if err := os.WriteFile(name, res.Files[name], 0o644); err != nil {
			return nil, err
		}
	}
	report(out, "iolint: applied %d fix(es) across %d file(s)\n", res.Applied, len(res.Files))
	// Re-analyze the fixed tree: fixed findings disappear, and a fix
	// that somehow introduced a finding is caught here, keeping -fix
	// honest about idempotency.
	loader, err := lint.NewLoader(modDir)
	if err != nil {
		return nil, err
	}
	reRun := &lint.Runner{Analyzers: runner.Analyzers}
	var rePkgs []*lint.Package
	var loadErrs []error
	for _, p := range pkgs {
		rel := strings.TrimPrefix(strings.TrimPrefix(p.Path, p.ModPath), "/")
		if rel == "" {
			rel = "."
		}
		np, err := loader.Load(rel)
		if err != nil {
			loadErrs = append(loadErrs, err)
			continue
		}
		rePkgs = append(rePkgs, np)
	}
	if len(loadErrs) > 0 {
		return nil, loadErrs[0]
	}
	return reRun.Run(rePkgs), nil
}

// jsonFinding is the machine-readable shape of one finding; CI turns
// these into GitHub Actions annotations.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
	Fixable bool   `json:"fixable"`
}

// emitJSON writes the findings as one JSON array (always an array,
// never null, so `jq '.[]'` works on a clean tree).
func emitJSON(out io.Writer, diags []lint.Diagnostic, modDir string) {
	arr := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(modDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		arr = append(arr, jsonFinding{
			File: file, Line: d.Pos.Line, Col: d.Pos.Column,
			Check: d.Check, Message: d.Message, Fixable: len(d.Fixes) > 0,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	_ = enc.Encode(arr)
}

// report writes user-facing output, explicitly discarding the
// writer error: the process exit code is the tool's contract, and a
// broken stdout pipe must not mask it.
func report(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// loadPatterns resolves the command-line package patterns: no
// arguments or "./..." loads the whole module; anything else is a
// package directory relative to the module root. Load failures are
// collected, not fatal, so the rest of the tree is still analyzed.
func loadPatterns(loader *lint.Loader, patterns []string) ([]*lint.Package, []error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*lint.Package
	var errs []error
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			all, loadErrs := loader.LoadAll()
			pkgs = append(pkgs, all...)
			errs = append(errs, loadErrs...)
			continue
		}
		p, err := loader.Load(filepath.Clean(strings.TrimPrefix(pat, "./")))
		if err != nil {
			errs = append(errs, err)
			continue
		}
		pkgs = append(pkgs, p)
	}
	return dedupe(pkgs), errs
}

// dedupe drops packages already seen (patterns may overlap).
func dedupe(pkgs []*lint.Package) []*lint.Package {
	seen := map[string]bool{}
	var out []*lint.Package
	for _, p := range pkgs {
		if !seen[p.Path] {
			seen[p.Path] = true
			out = append(out, p)
		}
	}
	return out
}

// relativize renders a diagnostic with its file path relative to the
// module root, for stable, clickable output.
func relativize(d lint.Diagnostic, modDir string) string {
	if rel, err := filepath.Rel(modDir, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		d.Pos.Filename = rel
	}
	return d.String()
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
