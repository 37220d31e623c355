package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path"
)

// SpanBalanceCheck is the name of the spanbalance analyzer.
const SpanBalanceCheck = "spanbalance"

// SpanBalance returns the analyzer enforcing the one shape a span may
// take. Every span opened on an *ioreq.Request (Push, or Enter on a
// component's recorder) or on a *telemetry.Recorder (Enter, the
// concurrency gauge) must be followed, after nothing but further
// opens, by a defer that closes it with its own pair (Pop, Exit). The
// defer calls the close directly or as a top-level statement of a
// deferred literal. A close anywhere else is a finding, and so is an
// open inside a loop body. The rule is syntactic and checks each
// function on its own: a defer right after the open closes the span
// on every path out, early returns and panics included, so no
// control-flow analysis is needed.
func SpanBalance() *Analyzer {
	return &Analyzer{
		Name: SpanBalanceCheck,
		Doc: "Reports spans (ioreq.Request.Push/Enter, telemetry.Recorder.Enter) " +
			"not closed by a defer right after the open, closes (Pop/Exit) " +
			"anywhere else, and opens inside loop bodies. The span stack is " +
			"shared by every caller above: one unbalanced path corrupts the " +
			"whole request's attribution.",
		AppliesTo: notSpanPrimitive,
		Run:       spanBalanceRun,
	}
}

// notSpanPrimitive excludes the packages that implement the span
// primitives themselves — their internals legitimately manipulate
// the stack and gauge asymmetrically.
func notSpanPrimitive(pkgPath string) bool {
	base := path.Base(pkgPath)
	return base != "ioreq" && base != "telemetry"
}

// spanOp is one open or close call.
type spanOp struct {
	call    *ast.CallExpr
	subject string // canonical receiver text, e.g. "r" or "srv.rec"
	close   string // closing method of the pair
	open    bool
}

// pair keys an op by subject and closing method, so a span opened by
// r.Enter and closed by r.Pop matches neither.
func (op spanOp) pair() string { return op.subject + "." + op.close }

// spanCall classifies a node as a span open or close.
func spanCall(p *Package, n ast.Node) (spanOp, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return spanOp{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return spanOp{}, false
	}
	op := spanOp{call: call, subject: types.ExprString(sel.X)}
	t := p.Info.TypeOf(sel.X)
	switch name := sel.Sel.Name; {
	case isRequestPtr(t) && (name == "Push" || name == "Pop"):
		op.close, op.open = "Pop", name == "Push"
	case (isRequestPtr(t) || isRecorderRef(t)) && (name == "Enter" || name == "Exit"):
		op.close, op.open = "Exit", name == "Enter"
	default:
		return spanOp{}, false
	}
	return op, true
}

// stmtSpan classifies a statement that is a bare span call.
func stmtSpan(p *Package, s ast.Stmt) (spanOp, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return spanOp{}, false
	}
	return spanCall(p, es.X)
}

// deferredCloses returns the closes a defer statement runs: its own
// call, or the top-level statements of a deferred literal.
func deferredCloses(p *Package, ds *ast.DeferStmt) []spanOp {
	stmts := []ast.Stmt{&ast.ExprStmt{X: ds.Call}}
	if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
		stmts = lit.Body.List
	}
	var out []spanOp
	for _, s := range stmts {
		if op, ok := stmtSpan(p, s); ok && !op.open {
			out = append(out, op)
		}
	}
	return out
}

func spanBalanceRun(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		// claimed holds the closes of defers that follow their opens.
		// funcScopes visits an enclosing body before the literals in
		// it, so a deferred literal's closes are claimed before the
		// literal is checked as a scope of its own.
		claimed := map[*ast.CallExpr]bool{}
		funcScopes(f, func(body *ast.BlockStmt) {
			out = append(out, spanScope(p, body, claimed)...)
		})
	}
	return out
}

// spanScope checks one function body. Nested literals are scopes of
// their own.
func spanScope(p *Package, body *ast.BlockStmt, claimed map[*ast.CallExpr]bool) []Diagnostic {
	var out []Diagnostic
	placed := map[*ast.CallExpr]bool{} // opens standing as statements
	var loops []ast.Node
	walkScope(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, n.Body)
		case *ast.RangeStmt:
			loops = append(loops, n.Body)
		case *ast.BlockStmt:
			out = append(out, spanRuns(p, body, n.List, placed, claimed)...)
		case *ast.CaseClause:
			out = append(out, spanRuns(p, body, n.Body, placed, claimed)...)
		case *ast.CommClause:
			out = append(out, spanRuns(p, body, n.Body, placed, claimed)...)
		}
		return true
	})
	walkScope(body, func(n ast.Node) bool {
		op, ok := spanCall(p, n)
		switch {
		case !ok:
		case !op.open && !claimed[op.call]:
			out = append(out, diag(p, op.call.Pos(), SpanBalanceCheck,
				"%s.%s() is not a deferred close right after its open; close spans only with a defer that follows the open, so every path closes them exactly once",
				op.subject, op.close))
		case op.open && !placed[op.call]:
			out = append(out, unclosed(p, op))
		case op.open && within(op.call, loops):
			out = append(out, diag(p, op.call.Pos(), SpanBalanceCheck,
				"span opened on %s inside a loop body; each iteration stacks another span until the function returns — move the body into a function",
				op.subject))
		}
		return true
	})
	return out
}

// spanRuns checks the runs of opens in one statement list: each run
// must be followed by a defer that closes every span in it. It marks
// the opens it sees as placed and the closes that match as claimed.
func spanRuns(p *Package, body *ast.BlockStmt, list []ast.Stmt, placed, claimed map[*ast.CallExpr]bool) []Diagnostic {
	var out []Diagnostic
	for i := 0; i < len(list); i++ {
		var opens []spanOp
		for ; i < len(list); i++ {
			op, ok := stmtSpan(p, list[i])
			if !ok || !op.open {
				break
			}
			placed[op.call] = true
			opens = append(opens, op)
		}
		if len(opens) == 0 {
			continue
		}
		open := map[string]int{}
		for _, op := range opens {
			open[op.pair()]++
		}
		if i < len(list) {
			if ds, ok := list[i].(*ast.DeferStmt); ok {
				for _, cl := range deferredCloses(p, ds) {
					if open[cl.pair()] > 0 {
						open[cl.pair()]--
						claimed[cl.call] = true
					}
				}
			}
		}
		for _, op := range opens {
			if open[op.pair()] == 0 {
				continue
			}
			open[op.pair()]--
			d := unclosed(p, op)
			if !closesAnywhere(p, body, op.pair()) {
				at := op.call.End()
				d = withFix(d, fmt.Sprintf("insert `defer %s.%s()` after the open", op.subject, op.close),
					TextEdit{Pos: at, End: at, NewText: fmt.Sprintf("\ndefer %s.%s()", op.subject, op.close)})
			}
			out = append(out, d)
		}
	}
	return out
}

// unclosed reports an open that no defer right after it closes.
func unclosed(p *Package, op spanOp) Diagnostic {
	return diag(p, op.call.Pos(), SpanBalanceCheck,
		"span opened on %s is not closed by a defer right after the open; a hand-placed close is skipped by early returns and panics",
		op.subject)
}

// closesAnywhere reports whether the body closes the pair anywhere,
// nested literals included; inserting a defer would then double-close.
func closesAnywhere(p *Package, body *ast.BlockStmt, pair string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if op, ok := spanCall(p, n); ok && !op.open && op.pair() == pair {
			found = true
		}
		return !found
	})
	return found
}

// within reports whether n lies inside any of the nodes.
func within(n ast.Node, nodes []ast.Node) bool {
	for _, m := range nodes {
		if n.Pos() >= m.Pos() && n.End() <= m.End() {
			return true
		}
	}
	return false
}
