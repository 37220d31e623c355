package lint

import (
	"go/ast"
	"go/types"
)

// DeterminismCheck is the name of the determinism analyzer.
const DeterminismCheck = "determinism"

// seededRandConstructors are the math/rand package-level functions
// that construct explicitly seeded state rather than drawing from the
// global source.
var seededRandConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Determinism returns the analyzer enforcing that the simulated
// stack stays a pure function of its inputs: no wall clock
// (time.Now/Since/Until), no draws from the global math/rand source,
// and no map iteration whose order can leak into ordered output
// (appends that are never sorted, direct writes/prints, returns or
// channel sends from inside the loop).
func Determinism() *Analyzer {
	return &Analyzer{
		Name: DeterminismCheck,
		Doc: "Reports wall-clock reads, unseeded global math/rand draws, and " +
			"map iterations whose order can reach report/JSON/text output. " +
			"The sweep and telemetry reports must be byte-identical across " +
			"runs and worker counts (paper §IV); any of these constructs " +
			"silently breaks that.",
		Run: determinismRun,
	}
}

func determinismRun(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		funcScopes(f, func(body *ast.BlockStmt) {
			out = append(out, determinismScope(p, body)...)
		})
	}
	return out
}

// determinismScope checks one function body.
func determinismScope(p *Package, body *ast.BlockStmt) []Diagnostic {
	var out []Diagnostic
	walkScope(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if d, ok := nondeterministicCall(p, n); ok {
				out = append(out, d)
			}
		case *ast.RangeStmt:
			if d, ok := orderSensitiveMapRange(p, body, n); ok {
				out = append(out, d)
			}
		}
		return true
	})
	return out
}

// nondeterministicCall reports calls to the wall clock and to the
// global math/rand source.
func nondeterministicCall(p *Package, call *ast.CallExpr) (Diagnostic, bool) {
	pkgPath, name, ok := packageLevelCallee(p, call)
	if !ok {
		return Diagnostic{}, false
	}
	switch pkgPath {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			return diag(p, call.Pos(), DeterminismCheck,
				"call to time.%s reads the wall clock; simulated code must use the engine clock or an injected clock function", name), true
		}
	case "math/rand", "math/rand/v2":
		if !seededRandConstructors[name] {
			return diag(p, call.Pos(), DeterminismCheck,
				"call to rand.%s draws from the global, unseeded source; inject a seeded *rand.Rand instead", name), true
		}
	}
	return Diagnostic{}, false
}

// packageLevelCallee resolves a call of the form pkg.F and returns
// the package path and function name.
func packageLevelCallee(p *Package, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	if _, isPkg := p.Info.Uses[id].(*types.PkgName); !isPkg {
		return "", "", false
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Path(), obj.Name(), true
}

// orderSensitiveMapRange reports a range over a map whose body builds
// ordered output: appending to a slice that is never subsequently
// sorted in the enclosing function, writing/printing directly, or
// returning / sending from inside the loop (a nondeterministic pick).
func orderSensitiveMapRange(p *Package, enclosing *ast.BlockStmt, rng *ast.RangeStmt) (Diagnostic, bool) {
	t := p.Info.TypeOf(rng.X)
	if t == nil {
		return Diagnostic{}, false
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return Diagnostic{}, false
	}
	reason := ""
	walkScope(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				obj := appendTarget(p, n.Lhs[i], rhs)
				if obj == nil {
					continue
				}
				// A slice declared inside the loop body restarts every
				// iteration and cannot accumulate map order.
				if obj.Pos() >= rng.Body.Pos() && obj.Pos() < rng.Body.End() {
					continue
				}
				if !sortedLater(p, enclosing, rng, obj) {
					reason = "appends to a slice that is never sorted afterwards"
				}
			}
		case *ast.CallExpr:
			if isStreamWrite(p, n) {
				reason = "writes output directly from the loop body"
			}
		case *ast.ReturnStmt:
			reason = "returns from inside the loop (a nondeterministic pick)"
		case *ast.SendStmt:
			reason = "sends on a channel from inside the loop"
		}
		return true
	})
	if reason == "" {
		return Diagnostic{}, false
	}
	return diag(p, rng.Pos(), DeterminismCheck,
		"iteration over map %s is order-sensitive (%s); map order is random per run — collect and sort keys first",
		types.ExprString(rng.X), reason), true
}

// appendTarget returns the object of the variable v in statements of
// the form v = append(v, ...), or nil.
func appendTarget(p *Package, lhs ast.Expr, rhs ast.Expr) types.Object {
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil
	}
	if _, isBuiltin := p.Info.Uses[fn].(*types.Builtin); !isBuiltin {
		return nil
	}
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// isStreamWrite reports whether the call prints or writes to a
// stream: fmt.Print*/Fprint* or a method whose name starts with
// "Write" or appends rows to a table ("AddRow").
func isStreamWrite(p *Package, call *ast.CallExpr) bool {
	if pkgPath, name, ok := packageLevelCallee(p, call); ok {
		if pkgPath == "fmt" {
			switch name {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return true
			}
		}
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if s, ok := p.Info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
		return false
	}
	name := sel.Sel.Name
	if len(name) >= 5 && name[:5] == "Write" {
		return true
	}
	return name == "AddRow"
}

// sortedLater reports whether obj is passed (anywhere in an argument
// subtree) to a sort or slices call after the range statement in the
// enclosing function — the "collect keys, then sort" idiom.
func sortedLater(p *Package, enclosing *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	walkScope(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		pkgPath, _, ok := packageLevelCallee(p, call)
		if !ok || (pkgPath != "sort" && pkgPath != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && p.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return true
	})
	return found
}
