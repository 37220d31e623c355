package lint

import (
	"go/ast"
	"go/types"
)

// ErrCheckCheck is the name of the errcheck analyzer.
const ErrCheckCheck = "errcheck"

// ErrCheck returns the analyzer reporting call statements that
// silently discard an error result. An error swallowed in the
// characterization or report path turns a failed measurement into a
// silently wrong table, so every error is either handled or
// explicitly discarded with `_ =`.
//
// Pragmatic exemptions, documented in DESIGN.md §9: methods on
// *strings.Builder and *bytes.Buffer (defined to never fail),
// fmt.Print* to stdout, fmt.Fprint* into those builders or
// os.Stdout/os.Stderr, and deferred calls (cleanup-path error loss
// is a separate concern from control flow).
func ErrCheck() *Analyzer {
	return &Analyzer{
		Name: ErrCheckCheck,
		Doc: "Reports statements that call a function returning an error and " +
			"drop every result. Handle the error or discard it explicitly " +
			"with `_ =` so the decision is visible.",
		Run: errCheckRun,
	}
}

func errCheckRun(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(p, call) || exemptCallee(p, call) {
				return true
			}
			out = append(out, diag(p, call.Pos(), ErrCheckCheck,
				"result of %s is an unchecked error; handle it or discard explicitly with `_ =`",
				types.ExprString(call.Fun)))
			return true
		})
	}
	return out
}

// returnsError reports whether any result of the call has type error.
func returnsError(p *Package, call *ast.CallExpr) bool {
	sig, ok := p.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	errType := types.Universe.Lookup("error").Type()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			return true
		}
	}
	return false
}

// exemptCallee applies the documented exemptions.
func exemptCallee(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Methods on the never-failing writers.
	if s, ok := p.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		switch types.TypeString(s.Recv(), nil) {
		case "*strings.Builder", "strings.Builder", "*bytes.Buffer", "bytes.Buffer":
			return true
		}
		return false
	}
	pkgPath, name, ok := packageLevelCallee(p, call)
	if !ok || pkgPath != "fmt" {
		return false
	}
	switch name {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		return len(call.Args) > 0 && exemptWriter(p, call.Args[0])
	}
	return false
}

// exemptWriter reports whether the fmt.Fprint* destination is a
// never-failing builder or a standard stream.
func exemptWriter(p *Package, w ast.Expr) bool {
	switch types.TypeString(p.Info.TypeOf(w), nil) {
	case "*strings.Builder", "*bytes.Buffer":
		return true
	}
	if sel, ok := w.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "os" {
				return sel.Sel.Name == "Stdout" || sel.Sel.Name == "Stderr"
			}
		}
	}
	return false
}
