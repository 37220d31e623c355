// Package lint is a repo-native static-analysis framework built
// purely on the standard library (go/ast, go/parser, go/types). It
// exists because the methodology's core promise — byte-identical
// characterization tables and sweep reports regardless of worker
// count — rests on invariants (no wall clock or unseeded randomness
// anywhere in the module, no map-iteration order leaking into
// reports, no mutex held across exported calls, every span closed by
// a defer) that ordinary tests can only spot-check.
// The analyzers in this package machine-check them on every build.
//
// Every check is a syntactic, type-driven walk of one package, except
// probeconform, which looks at the whole package set at once. None
// builds a control-flow graph or keeps facts between packages: span
// balance holds by construction rather than by path analysis, since
// each open must be followed by the defer that closes it. Analyzers may
// attach SuggestedFixes, which cmd/iolint -fix applies as
// non-overlapping, gofmt-clean textual edits.
//
// A finding can be silenced at the site with a justified directive:
//
//	//lint:ignore <check> <reason>
//
// A directive on its own line suppresses findings of that check on
// the next line; a directive trailing code suppresses findings on
// its own line only. A directive without a reason is itself reported
// (check "directive"), and a well-formed directive that suppresses
// nothing is reported too (check "directive-unused"): the
// suppression policy is that every silenced finding documents why
// the invariant holds anyway, and stale suppressions rot into
// blind spots.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding, anchored to a source position.
type Diagnostic struct {
	// Pos is the resolved file/line/column of the finding.
	Pos token.Position
	// Check names the analyzer that produced the finding; ignore
	// directives match against it.
	Check string
	// Message states the violated invariant and, where possible, the
	// fix.
	Message string
	// Fixes are machine-applicable edits that resolve the finding.
	// Empty when no safe automatic fix exists.
	Fixes []SuggestedFix
}

// String renders the diagnostic in the conventional
// file:line:col: check: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant the
	// analyzer protects.
	Doc string
	// AppliesTo, when non-nil, restricts which import paths the
	// runner feeds to Run; a nil filter means every package.
	AppliesTo func(pkgPath string) bool
	// Run inspects one package. Exactly one of Run and RunModule is
	// set.
	Run func(p *Package) []Diagnostic
	// RunModule inspects the whole package set at once, for checks
	// that need a cross-package view (e.g. "is this probe registered
	// anywhere?").
	RunModule func(pkgs []*Package) []Diagnostic
}

// DirectiveCheck is the pseudo-check name under which malformed
// //lint:ignore directives are reported.
const DirectiveCheck = "directive"

// DirectiveUnusedCheck is the pseudo-check name under which
// well-formed directives that suppress nothing are reported.
const DirectiveUnusedCheck = "directive-unused"

// ignorePrefix starts every suppression directive.
const ignorePrefix = "//lint:ignore"

// directive is one parsed //lint:ignore comment.
type directive struct {
	pos    token.Position
	check  string
	reason string
	// target is the single line the directive suppresses: its own
	// line when the comment trails code, the next line when the
	// comment stands alone.
	target int
	used   bool
}

// Runner applies a set of analyzers to a set of packages and folds
// suppression directives into the result.
type Runner struct {
	// Analyzers run in order; diagnostics are merged and sorted.
	Analyzers []*Analyzer
}

// Run executes every analyzer over the packages — per package, or
// once over the whole set for module-wide checks — drops findings
// suppressed by well-formed //lint:ignore directives, reports
// malformed and unused directives, and returns the remainder sorted
// by position then check name — a deterministic order, as this tool
// preaches.
func (r *Runner) Run(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, az := range r.Analyzers {
		if az.RunModule != nil {
			diags = append(diags, az.RunModule(pkgs)...)
			continue
		}
		for _, p := range pkgs {
			if az.AppliesTo != nil && !az.AppliesTo(p.Path) {
				continue
			}
			diags = append(diags, az.Run(p)...)
		}
	}
	active := map[string]bool{DirectiveCheck: true, DirectiveUnusedCheck: true}
	for _, az := range r.Analyzers {
		active[az.Name] = true
	}
	diags = applyDirectives(pkgs, diags, active)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags
}

// applyDirectives filters diags through the packages' ignore
// directives, appends a finding for each malformed directive, and
// appends a finding for each well-formed directive that suppressed
// nothing (only for checks the runner actually ran, so a partial
// analyzer set does not misreport suppressions of the others).
func applyDirectives(pkgs []*Package, diags []Diagnostic, active map[string]bool) []Diagnostic {
	var valid []*directive
	var out []Diagnostic
	lines := newLineCache()
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := cutDirective(c.Text)
					if !ok {
						continue
					}
					pos := p.Position(c.Pos())
					check, reason, _ := strings.Cut(strings.TrimSpace(text), " ")
					reason = strings.TrimSpace(reason)
					if check == "" || reason == "" {
						out = append(out, Diagnostic{
							Pos:     pos,
							Check:   DirectiveCheck,
							Message: "malformed ignore directive: want //lint:ignore <check> <reason>",
						})
						continue
					}
					target := pos.Line + 1
					if lines.trailsCode(pos) {
						target = pos.Line
					}
					valid = append(valid, &directive{pos: pos, check: check, reason: reason, target: target})
				}
			}
		}
	}
	for _, d := range diags {
		if !suppressed(valid, d) {
			out = append(out, d)
		}
	}
	for _, dir := range valid {
		if !dir.used && active[dir.check] {
			out = append(out, Diagnostic{
				Pos:   dir.pos,
				Check: DirectiveUnusedCheck,
				Message: fmt.Sprintf("directive suppresses no %s finding on line %d; delete it or fix the check name",
					dir.check, dir.target),
			})
		}
	}
	return out
}

// lineCache lazily reads source files to decide whether a comment
// trails code on its line.
type lineCache struct{ files map[string][]string }

func newLineCache() *lineCache { return &lineCache{files: map[string][]string{}} }

// trailsCode reports whether anything but whitespace precedes the
// given position on its source line. On read failure it reports
// false (the directive is treated as standalone).
func (lc *lineCache) trailsCode(pos token.Position) bool {
	lines, ok := lc.files[pos.Filename]
	if !ok {
		data, err := os.ReadFile(pos.Filename)
		if err != nil {
			lines = nil
		} else {
			lines = strings.Split(string(data), "\n")
		}
		lc.files[pos.Filename] = lines
	}
	if pos.Line-1 >= len(lines) || pos.Line < 1 {
		return false
	}
	prefix := lines[pos.Line-1]
	if pos.Column-1 < len(prefix) {
		prefix = prefix[:pos.Column-1]
	}
	return strings.TrimSpace(prefix) != ""
}

// cutDirective extracts the payload of an ignore directive from a
// comment's raw text, reporting whether the comment is one.
func cutDirective(comment string) (string, bool) {
	rest, ok := strings.CutPrefix(comment, ignorePrefix)
	if !ok {
		return "", false
	}
	// Require an exact "//lint:ignore" token: "//lint:ignorefoo" is
	// not a directive.
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return rest, true
}

// suppressed reports whether a directive for the diagnostic's check
// targets the diagnostic's line in the same file, marking the
// directive used.
func suppressed(dirs []*directive, d Diagnostic) bool {
	hit := false
	for _, dir := range dirs {
		if dir.check != d.Check || dir.pos.Filename != d.Pos.Filename {
			continue
		}
		if dir.target == d.Pos.Line {
			dir.used = true
			hit = true
		}
	}
	return hit
}

// diag is the shared constructor analyzers use: it resolves the
// position and formats the message.
func diag(p *Package, pos token.Pos, check, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: p.Position(pos), Check: check, Message: fmt.Sprintf(format, args...)}
}

// funcScopes yields every function body in the file — declarations
// and literals — exactly once each, calling fn with the enclosing
// FuncDecl body (or the literal's own body). Nested function
// literals are visited as their own scopes.
func funcScopes(f *ast.File, fn func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				fn(n.Body)
			}
		case *ast.FuncLit:
			fn(n.Body)
		}
		return true
	})
}

// walkScope walks the statements of one function body without
// descending into nested function literals (which run on their own
// schedule and form their own scopes).
func walkScope(body *ast.BlockStmt, fn func(n ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return fn(n)
	})
}
