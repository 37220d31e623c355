package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// SpanBalanceCheck is the name of the spanbalance analyzer.
const SpanBalanceCheck = "spanbalance"

// SpanBalance returns the CFG-based analyzer enforcing that every
// span opened on an *ioreq.Request (Push, or Enter on a component's
// recorder) or a *telemetry.Recorder (Enter, the concurrency gauge)
// is closed by its own pair (Pop, Exit) on every control-flow path
// out of the function — early returns, panics, and loop back-edges
// included. Deferred closes count on every exit, which is the
// idiomatic shape (`defer r.Exit()`). Every function is checked on
// its own: a helper that only opens a span is itself a leak.
func SpanBalance() *Analyzer {
	return &Analyzer{
		Name: SpanBalanceCheck,
		Doc: "Reports spans (ioreq.Request.Push/Enter, telemetry.Recorder.Enter) " +
			"that some control-flow path leaves open or closes twice. The " +
			"span stack is shared by every caller above: one unbalanced " +
			"path corrupts the whole request's attribution. Close on every " +
			"path, usually with a defer right after the open.",
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

// spanOp is one open/close operation found in a scanned subtree.
type spanOp struct {
	pos     token.Pos
	stmtEnd token.Pos // end of the enclosing top-level node, for fix insertion
	subject string    // canonical receiver text, e.g. "r" or "srv.rec"
	// pair keys the depth: subject plus closing method, so a span
	// opened by r.Enter and closed by r.Pop is a finding on both pairs.
	pair  string
	delta int
	close string // closing method name of the pair
}

// spanMethod classifies a selector call as a span operation: ±1 and
// the pair's closing method name.
func spanMethod(p *Package, sel *ast.SelectorExpr) (delta int, closeName string, ok bool) {
	t := p.Info.TypeOf(sel.X)
	switch {
	case isRequestPtr(t):
		switch sel.Sel.Name {
		case "Push":
			return +1, "Pop", true
		case "Pop":
			return -1, "Pop", true
		case "Enter":
			return +1, "Exit", true
		case "Exit":
			return -1, "Exit", true
		}
	case isRecorderRef(t):
		switch sel.Sel.Name {
		case "Enter":
			return +1, "Exit", true
		case "Exit":
			return -1, "Exit", true
		}
	}
	return 0, "", false
}

func spanBalanceRun(pass *Pass) []Diagnostic {
	p := pass.Package
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, spanBalanceFunc(pass, funcName(fd), pass.FuncCFG(fd))...)
			// Function literals are their own scopes with their own
			// span discipline — except deferred literals, whose ops are
			// cleanup accounted against the enclosing function's spans
			// (defer func() { rec.Exit(..); r.Pop() }()).
			deferredLits := map[*ast.FuncLit]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if ds, ok := n.(*ast.DeferStmt); ok {
					if lit, ok := ds.Call.Fun.(*ast.FuncLit); ok {
						deferredLits[lit] = true
					}
				}
				return true
			})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && !deferredLits[lit] {
					g := BuildCFG(funcName(fd)+".func", lit.Body)
					out = append(out, spanBalanceFunc(pass, g.Name, g)...)
				}
				return true
			})
		}
	}
	return out
}

// collectOps scans one CFG node (not descending into function
// literals) for span operations, in source order.
func collectOps(pass *Pass, n ast.Node) []spanOp {
	p := pass.Package
	var ops []spanOp
	stmtEnd := n.End()
	ast.Inspect(n, func(c ast.Node) bool {
		if _, isLit := c.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if delta, closeName, ok := spanMethod(p, sel); ok {
				subject := types.ExprString(sel.X)
				ops = append(ops, spanOp{pos: call.Pos(), stmtEnd: stmtEnd,
					subject: subject, pair: subject + "." + closeName, delta: delta, close: closeName})
			}
		}
		return true
	})
	return ops
}

// calleeObj resolves the called function object of a call, if any.
func calleeObj(p *Package, call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// spanBalanceFunc walks every control-flow path of one function,
// tracking per-pair span depth, and reports paths that leave a
// span open, close a span that is not open, or grow the depth around
// a loop. Defers are path-sensitive: a deferred close (directly or
// inside a deferred literal) is accumulated when the path actually
// executes the defer statement, and applied at every exit that path
// reaches — an early return before the defer gets no credit for it.
func spanBalanceFunc(pass *Pass, name string, g *CFG) []Diagnostic {
	p := pass.Package
	// Per-block op lists (immediate vs deferred) and whole-function
	// bookkeeping.
	blockImm := make([][]spanOp, len(g.Blocks))
	blockDef := make([][]spanOp, len(g.Blocks))
	firstOpen := map[string]spanOp{}
	closeCount := map[string]int{}
	anyOps := false
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			var ops []spanOp
			deferredNode := false
			if ds, ok := n.(*ast.DeferStmt); ok {
				deferredNode = true
				ops = deferredOps(pass, ds.Call)
			} else {
				ops = collectOps(pass, n)
			}
			if deferredNode {
				blockDef[blk.Index] = append(blockDef[blk.Index], ops...)
			} else {
				blockImm[blk.Index] = append(blockImm[blk.Index], ops...)
			}
			for _, op := range ops {
				anyOps = true
				if op.delta > 0 {
					if _, ok := firstOpen[op.pair]; !ok {
						firstOpen[op.pair] = op
					}
				} else {
					closeCount[op.pair]++
				}
			}
		}
	}
	if !anyOps {
		return nil
	}

	var out []Diagnostic
	reported := map[string]bool{} // finding class + subject
	report := func(key string, d Diagnostic) {
		if !reported[key] {
			reported[key] = true
			out = append(out, d)
		}
	}

	type state struct {
		blk      *Block
		depth    map[string]int
		deferred map[string]int
	}
	key := func(depth, deferred map[string]int) string {
		parts := make([]string, 0, len(depth)+len(deferred))
		for s, d := range depth {
			if d != 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", s, d))
			}
		}
		for s, d := range deferred {
			if d != 0 {
				parts = append(parts, fmt.Sprintf("defer:%s=%d", s, d))
			}
		}
		sort.Strings(parts)
		return strings.Join(parts, ";")
	}
	copyMap := func(m map[string]int) map[string]int {
		out := make(map[string]int, len(m))
		for s, d := range m {
			out[s] = d
		}
		return out
	}
	seen := make([]map[string]bool, len(g.Blocks)+1)
	for i := range seen {
		seen[i] = map[string]bool{}
	}
	stack := []state{{blk: g.Entry, depth: map[string]int{}, deferred: map[string]int{}}}
	steps := 0
	for len(stack) > 0 && steps < 4096 {
		steps++
		st := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		depth := copyMap(st.depth)
		deferred := copyMap(st.deferred)
		overgrown := false
		for _, op := range blockImm[st.blk.Index] {
			depth[op.pair] += op.delta
			if depth[op.pair] < 0 {
				report("neg:"+op.pair, diag(p, op.pos, SpanBalanceCheck,
					"%s closes a span on %s that is not open on every path reaching this point; a double close corrupts the span stack for every caller above",
					name, op.subject))
				depth[op.pair] = 0
			}
			if depth[op.pair] > 3 {
				op := firstOpen[op.pair]
				report("loop:"+op.pair, diag(p, op.pos, SpanBalanceCheck,
					"%s opens a span on %s inside a loop without closing it in the same iteration; the depth grows with the trip count",
					name, op.subject))
				overgrown = true
			}
		}
		for _, op := range blockDef[st.blk.Index] {
			deferred[op.pair] += op.delta
		}
		if overgrown {
			continue
		}
		for _, succ := range st.blk.Succs {
			if succ == g.Exit {
				// Check the union of open and deferred pairs, so a
				// deferred close with no matching open is caught too.
				total := copyMap(depth)
				for pair, d := range deferred {
					total[pair] += d
				}
				for pair, d := range total {
					if d > 0 {
						op := firstOpen[pair]
						exitLine := ""
						if t := st.blk.Term(); t != nil {
							exitLine = fmt.Sprintf(" (e.g. the path through line %d)", p.Position(t.Pos()).Line)
						}
						d := diag(p, op.pos, SpanBalanceCheck,
							"%s opens a span on %s that is not closed on every path%s; close it on all paths or defer the close right after the open",
							name, op.subject, exitLine)
						if closeCount[pair] == 0 {
							d = withFix(d, fmt.Sprintf("insert `defer %s.%s()` after the open", op.subject, op.close),
								TextEdit{Pos: op.stmtEnd, End: op.stmtEnd,
									NewText: fmt.Sprintf("\ndefer %s.%s()", op.subject, op.close)})
						}
						report("open:"+pair, d)
					} else if d < 0 {
						cl := firstClose(blockImm, blockDef, g, pair)
						report("negexit:"+pair, diag(p, cl.pos, SpanBalanceCheck,
							"%s closes more spans on %s than it opens on at least one path",
							name, cl.subject))
					}
				}
				continue
			}
			k := key(depth, deferred)
			if !seen[succ.Index][k] {
				if len(seen[succ.Index]) < 8 {
					seen[succ.Index][k] = true
					stack = append(stack, state{blk: succ, depth: depth, deferred: deferred})
				}
			}
		}
	}
	return out
}

// firstClose finds the first closing op of a pair, for anchoring
// over-close findings. A pair with a negative total always has one.
func firstClose(blockImm, blockDef [][]spanOp, g *CFG, pair string) spanOp {
	for _, ops := range [][][]spanOp{blockImm, blockDef} {
		for _, blk := range g.Blocks {
			for _, op := range ops[blk.Index] {
				if op.pair == pair && op.delta < 0 {
					return op
				}
			}
		}
	}
	panic("lint: over-close with no closing op for " + pair)
}

// deferredOps extracts the span operations a deferred call performs:
// a direct close (defer r.Pop()) or the net ops of a deferred function
// literal.
func deferredOps(pass *Pass, call *ast.CallExpr) []spanOp {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		var ops []spanOp
		for _, stmt := range lit.Body.List {
			ops = append(ops, collectOps(pass, stmt)...)
		}
		return ops
	}
	return collectOps(pass, call)
}
