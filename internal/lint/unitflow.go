package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// UnitFlowCheck is the name of the unitflow analyzer.
const UnitFlowCheck = "unitflow"

// unitSuffixes are the recognized size-unit name suffixes, longest
// first so "KiB" wins over "B"-style prefixes of longer names.
var unitSuffixes = []string{"GiB", "MiB", "KiB", "GB", "MB", "KB", "Bytes"}

// unitSize gives each unit's magnitude in bytes, used to decide when
// a mismatch has an exact machine-applicable conversion.
var unitSize = map[string]int64{
	"Bytes": 1,
	"KB":    1000, "MB": 1000 * 1000, "GB": 1000 * 1000 * 1000,
	"KiB": 1024, "MiB": 1024 * 1024, "GiB": 1024 * 1024 * 1024,
}

// UnitFlow returns the flow-sensitive unit analyzer, subsuming the
// old purely syntactic unitsafety check. Identifier suffixes (Bytes,
// KiB, MiB, GiB, KB, MB, GB) seed a per-function unit environment;
// units then propagate through assignments, so a suffix-less local
// initialized from a KiB value still carries KiB when it later meets
// a Bytes operand. The characterization tables key on block sizes in
// bytes; a KiB value slipping into a Bytes slot shifts every lookup
// by three orders of magnitude and still type-checks. Mismatches
// whose conversion factor is an exact integer (larger unit flowing
// into a smaller slot) carry a suggested fix multiplying by the
// factor; multiplying by an untyped constant clears the unit, which
// is exactly what makes the fixed code re-lint clean.
func UnitFlow() *Analyzer {
	return &Analyzer{
		Name: UnitFlowCheck,
		Doc: "Reports arithmetic, assignments, and struct-field writes whose " +
			"operands carry conflicting size units, tracking units through " +
			"local assignments. Convert explicitly (the fix multiplies by the " +
			"exact factor when one exists) or through a helper whose name " +
			"states the result unit.",
		Run: unitFlowRun,
	}
}

func unitFlowRun(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					out = append(out, unitFlowFunc(p, d.Body)...)
				}
			case *ast.GenDecl:
				// Package-level var/const blocks: no flow, suffixes only.
				uf := &unitFlow{p: p, env: map[types.Object]string{}}
				ast.Inspect(d, func(n ast.Node) bool {
					uf.check(n)
					return true
				})
				out = append(out, uf.diags...)
			}
		}
	}
	return out
}

// unitFlowFunc analyzes one function body with a fresh environment.
func unitFlowFunc(p *Package, body *ast.BlockStmt) []Diagnostic {
	uf := &unitFlow{p: p, env: map[types.Object]string{}}
	ast.Inspect(body, func(n ast.Node) bool {
		uf.check(n)
		return true
	})
	return uf.diags
}

// unitFlow carries the per-function inference state.
type unitFlow struct {
	p     *Package
	env   map[types.Object]string // inferred units of suffix-less locals
	diags []Diagnostic
}

// check inspects one node, reporting mismatches and propagating
// units into the environment. ast.Inspect visits in source order, so
// straight-line flow is resolved by the time a use is seen.
func (uf *unitFlow) check(n ast.Node) {
	switch n := n.(type) {
	case *ast.BinaryExpr:
		if !unitSensitiveOp(n.Op) {
			return
		}
		a, b := uf.unitOf(n.X), uf.unitOf(n.Y)
		if a != "" && b != "" && a != b {
			uf.report(n.OpPos, a, b, nil, "")
		}
	case *ast.AssignStmt:
		if len(n.Lhs) != len(n.Rhs) {
			return
		}
		for i := range n.Lhs {
			uf.flow(n.Lhs[i], n.Rhs[i], n.TokPos)
		}
	case *ast.ValueSpec:
		if len(n.Names) != len(n.Values) {
			return
		}
		for i := range n.Names {
			uf.flow(n.Names[i], n.Values[i], n.Names[i].Pos())
		}
	case *ast.CompositeLit:
		for _, el := range n.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			want := suffixUnit(key.Name)
			got := uf.unitOf(kv.Value)
			if want != "" && got != "" && want != got {
				uf.report(kv.Value.Pos(), want, got, kv.Value, want)
			}
		}
	}
}

// flow handles one lhs ← rhs pair: mismatch check against the lhs
// unit, then environment propagation for suffix-less lhs locals.
func (uf *unitFlow) flow(lhs, rhs ast.Expr, pos token.Pos) {
	want := uf.unitOf(lhs)
	got := uf.unitOf(rhs)
	if want != "" && got != "" && want != got {
		uf.report(pos, want, got, rhs, want)
	}
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" || suffixUnit(id.Name) != "" {
		return
	}
	obj := uf.p.Info.Defs[id]
	if obj == nil {
		obj = uf.p.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if got != "" {
		uf.env[obj] = got
	} else {
		delete(uf.env, obj)
	}
}

// report emits one mismatch. When fixExpr is non-nil and converting
// its unit into fixUnit is an exact integer multiplication, a
// suggested fix rewrites the expression; the multiplied result is an
// explicit conversion (untyped-constant arithmetic clears the unit),
// so fixed code re-lints clean.
func (uf *unitFlow) report(pos token.Pos, want, got string, fixExpr ast.Expr, fixUnit string) {
	d := diag(uf.p, pos, UnitFlowCheck,
		"mixes %s and %s operands without an explicit unit conversion", want, got)
	if fixExpr != nil && fixUnit != "" {
		from, to := unitSize[uf.unitOf(fixExpr)], unitSize[fixUnit]
		if from > to && to > 0 && from%to == 0 {
			text := exprSource(fixExpr)
			if _, bin := fixExpr.(*ast.BinaryExpr); bin {
				text = "(" + text + ")"
			}
			d = withFix(d, fmt.Sprintf("convert %s to %s (multiply by %d)", uf.unitOf(fixExpr), fixUnit, from/to),
				TextEdit{Pos: fixExpr.Pos(), End: fixExpr.End(),
					NewText: fmt.Sprintf("%s * %d", text, from/to)})
		}
	}
	uf.diags = append(uf.diags, d)
}

// unitOf infers the size unit an expression carries: the environment
// for flow-tracked locals, otherwise the name suffix of the
// identifier, field, or call that produces it ("" = unknown). A
// call's result takes the unit of the callee's name, which is what
// makes an explicit conversion helper (toBytes(perNodeKiB)) a
// sanctioned escape hatch. Arithmetic mixing a known unit with an
// unknown one (e.g. an untyped constant) clears the unit — that is
// the other escape hatch, and the shape the autofix emits.
func (uf *unitFlow) unitOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return uf.unitOf(e.X)
	case *ast.UnaryExpr:
		return uf.unitOf(e.X)
	case *ast.Ident:
		if u := suffixUnit(e.Name); u != "" {
			return u
		}
		obj := uf.p.Info.Uses[e]
		if obj == nil {
			obj = uf.p.Info.Defs[e]
		}
		return uf.env[obj]
	case *ast.SelectorExpr:
		return suffixUnit(e.Sel.Name)
	case *ast.CallExpr:
		return uf.unitOf(e.Fun)
	case *ast.IndexExpr:
		return uf.unitOf(e.X)
	case *ast.BinaryExpr:
		if a, b := uf.unitOf(e.X), uf.unitOf(e.Y); a == b {
			return a
		}
		return ""
	}
	return ""
}

// unitSensitiveOp reports whether mixing units across op is an error.
func unitSensitiveOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// suffixUnit maps an identifier name to the unit suffix it carries.
func suffixUnit(name string) string {
	lower := strings.ToLower(name)
	for _, u := range unitSuffixes {
		if strings.HasSuffix(name, u) || lower == strings.ToLower(u) {
			return u
		}
	}
	return ""
}

// exprSource renders an expression back to source text.
func exprSource(e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, token.NewFileSet(), e); err != nil {
		return ""
	}
	return buf.String()
}
