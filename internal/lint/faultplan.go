package lint

import (
	"go/ast"
	"go/types"
)

// FaultPlanCheck is the name of the faultplan analyzer.
const FaultPlanCheck = "faultplan"

// FaultPlan returns the analyzer enforcing the fault-plane
// construction contract: every non-empty fault.Plan literal names
// and seeds its scenario (unseeded jitter and unnamed sweep cells
// break replay and reporting), NetFlap/NFSStall events carry a
// Duration (a zero-length outage is a no-op the report still labels
// degraded), and every constructed plan is eventually armed —
// reaches fault.Apply, possibly through intermediate functions of
// the same package. Callees in other packages get the benefit of the
// doubt: passing a plan to one counts as arming it.
func FaultPlan() *Analyzer {
	return &Analyzer{
		Name: FaultPlanCheck,
		Doc: "Reports non-empty fault.Plan literals missing Name or Seed, " +
			"NetFlap/NFSStall events missing Duration, and plans that are " +
			"constructed but never reach fault.Apply (directly or through a " +
			"plan-consuming callee; only same-package callees are inspected).",
		Run: faultPlanRun,
	}
}

// planScan is the faultplan view of one package: for every function
// it declares with fault.Plan-typed parameters, the bitmask of those
// parameters the function consumes — forwards toward fault.Apply,
// stores or returns — as opposed to merely reads.
type planScan struct {
	p         *Package
	consumers map[types.Object]uint64
}

// isFaultPlan matches fault.Plan or *fault.Plan (by package name, so
// fixture trees with their own fault package conform).
func isFaultPlan(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Plan" && obj.Pkg() != nil && obj.Pkg().Name() == "fault"
}

// scanConsumers fills the consumer masks, iterating so
// intra-package forwarding chains converge.
func (ps *planScan) scanConsumers() {
	for iter := 0; iter < 4; iter++ {
		changed := false
		for _, f := range ps.p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := ps.p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				params := fn.Type().(*types.Signature).Params()
				tracked := map[types.Object]bool{}
				for i := 0; i < params.Len() && i < 64; i++ {
					if isFaultPlan(params.At(i).Type()) {
						tracked[params.At(i)] = true
					}
				}
				if len(tracked) == 0 {
					continue
				}
				consumed := ps.consumedObjects(fd.Body, tracked)
				var mask uint64
				for i := 0; i < params.Len() && i < 64; i++ {
					if consumed[params.At(i)] {
						mask |= 1 << i
					}
				}
				if prev, ok := ps.consumers[fn]; !ok || prev != mask {
					ps.consumers[fn] = mask
					changed = true
				}
			}
		}
		if !changed {
			return
		}
	}
}

func faultPlanRun(p *Package) []Diagnostic {
	ps := &planScan{p: p, consumers: map[types.Object]uint64{}}
	ps.scanConsumers()
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, ps.checkFunc(fd)...)
		}
	}
	return out
}

// checkFunc checks every fault.Plan literal in one function.
func (ps *planScan) checkFunc(fd *ast.FuncDecl) []Diagnostic {
	p := ps.p
	var out []Diagnostic
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || !isFaultPlan(p.Info.TypeOf(lit)) || len(lit.Elts) == 0 {
			return true
		}
		keys := map[string]ast.Expr{}
		keyed := true
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				keyed = false
				break
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				keys[id.Name] = kv.Value
			}
		}
		if keyed {
			if keys["Name"] == nil {
				out = append(out, diag(p, lit.Pos(), FaultPlanCheck,
					"non-empty fault.Plan literal does not set Name; unnamed scenarios are indistinguishable in sweep cells and reports"))
			}
			if keys["Seed"] == nil {
				out = append(out, diag(p, lit.Pos(), FaultPlanCheck,
					"non-empty fault.Plan literal does not set Seed; plan randomness (flap jitter) replays byte-identically only when seeded"))
			}
			if events := keys["Events"]; events != nil {
				out = append(out, checkPlanEvents(p, events)...)
			}
		}
		if !ps.literalConsumed(fd.Body, lit) {
			out = append(out, diag(p, lit.Pos(), FaultPlanCheck,
				"fault.Plan is constructed but never armed; pass it to fault.Apply (directly or through a plan-consuming function) or its events never fire"))
		}
		return true
	})
	return out
}

// checkPlanEvents enforces per-kind required fields on the Events
// slice literal: NetFlap and NFSStall are span faults, meaningless
// without a Duration.
func checkPlanEvents(p *Package, events ast.Expr) []Diagnostic {
	var out []Diagnostic
	list, ok := events.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	for _, el := range list.Elts {
		ev, ok := el.(*ast.CompositeLit)
		if !ok {
			continue
		}
		kind, hasDuration := "", false
		for _, field := range ev.Elts {
			kv, ok := field.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			switch id.Name {
			case "Kind":
				switch v := kv.Value.(type) {
				case *ast.SelectorExpr:
					kind = v.Sel.Name
				case *ast.Ident:
					kind = v.Name
				}
			case "Duration":
				hasDuration = true
			}
		}
		if (kind == "NetFlap" || kind == "NFSStall") && !hasDuration {
			out = append(out, diag(p, ev.Pos(), FaultPlanCheck,
				"%s event does not set Duration; a zero-length outage is a no-op the report still labels as degraded", kind))
		}
	}
	return out
}

// literalConsumed reports whether the literal itself is consumed at
// its use site, or flows into a local whose later uses consume it.
func (ps *planScan) literalConsumed(body *ast.BlockStmt, lit *ast.CompositeLit) bool {
	tracked := map[types.Object]bool{}
	litConsumed := false
	// First pass: classify the literal's own position and collect the
	// locals it is assigned to.
	inspectWithStack(body, func(n ast.Node, stack []ast.Node) {
		if n != lit {
			return
		}
		switch ps.classifyUse(lit, stack) {
		case useConsumed:
			litConsumed = true
		case useAliased:
			for _, obj := range aliasTargets(ps.p, lit, stack) {
				tracked[obj] = true
			}
		}
	})
	if litConsumed {
		return true
	}
	if len(tracked) == 0 {
		return false
	}
	consumed := ps.consumedObjects(body, tracked)
	armed := false
	for obj := range tracked {
		if consumed[obj] {
			armed = true
		}
	}
	return armed
}

// consumedObjects scans a body for consuming uses of the tracked
// objects, propagating through local aliases, and returns the set of
// originally tracked objects that are (transitively) consumed.
func (ps *planScan) consumedObjects(body *ast.BlockStmt, tracked map[types.Object]bool) map[types.Object]bool {
	// aliasOf maps a local to the tracked roots flowing into it.
	roots := map[types.Object]map[types.Object]bool{}
	for obj := range tracked {
		roots[obj] = map[types.Object]bool{obj: true}
	}
	consumed := map[types.Object]bool{}
	// Two passes: the first discovers aliases, the second classifies
	// every use with the full alias set known.
	for i := 0; i < 2; i++ {
		inspectWithStack(body, func(n ast.Node, stack []ast.Node) {
			id, ok := n.(*ast.Ident)
			if !ok {
				return
			}
			obj := ps.p.Info.Uses[id]
			if obj == nil || roots[obj] == nil {
				return
			}
			switch ps.classifyUse(id, stack) {
			case useConsumed:
				for root := range roots[obj] {
					consumed[root] = true
				}
			case useAliased:
				for _, target := range aliasTargets(ps.p, id, stack) {
					if roots[target] == nil {
						roots[target] = map[types.Object]bool{}
					}
					for root := range roots[obj] {
						roots[target][root] = true
					}
				}
			}
		})
	}
	return consumed
}

// useKind classifies one appearance of a plan value.
type useKind int

const (
	useRead useKind = iota // field read, method receiver: not consuming
	useConsumed
	useAliased // assigned to a plain local; track the target
)

// classifyUse decides what one occurrence of a plan value does, by
// climbing its ancestor chain. Wrapping in &, a composite literal, or
// parens is transparent; landing in a call argument consults the
// callee's consumer mask; returns and stores consume; selector access
// (pl.Name, pl.Validate()) merely reads.
func (ps *planScan) classifyUse(n ast.Node, stack []ast.Node) useKind {
	cur := ast.Node(n)
	stored := false
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr:
			cur = parent
		case *ast.UnaryExpr:
			// &lit / &pl escapes; keep climbing to see where the
			// pointer lands, but a bare & that goes nowhere tracked
			// still counts as stored.
			stored = true
			cur = parent
		case *ast.KeyValueExpr, *ast.CompositeLit:
			// Stored into a struct or slice: consumed (e.g.
			// Config{Fault: &plan}).
			return useConsumed
		case *ast.CallExpr:
			if ps.argConsumes(parent, cur) {
				return useConsumed
			}
			return useRead
		case *ast.ReturnStmt:
			return useConsumed
		case *ast.AssignStmt:
			return classifyAssign(parent, cur)
		case *ast.ValueSpec:
			return useAliased
		case *ast.SelectorExpr:
			// pl.Name, pl.Validate(...): a read of the plan.
			return useRead
		default:
			if stored {
				return useConsumed
			}
			// Unclassified context (range, condition, ...): benefit
			// of the doubt, treat as consumed rather than flag noise.
			return useConsumed
		}
	}
	if stored {
		return useConsumed
	}
	return useRead
}

// classifyAssign decides an assignment use: rhs into plain locals is
// aliasing, rhs into anything else (field, index, deref) is a store,
// lhs appearances are overwrites (reads of the old value don't
// matter).
func classifyAssign(as *ast.AssignStmt, cur ast.Node) useKind {
	for _, l := range as.Lhs {
		if l == cur {
			return useRead
		}
	}
	for _, l := range as.Lhs {
		if _, ok := l.(*ast.Ident); !ok {
			return useConsumed
		}
	}
	return useAliased
}

// aliasTargets returns the lhs objects a value flows into through
// its enclosing assignment or declaration.
func aliasTargets(p *Package, n ast.Node, stack []ast.Node) []types.Object {
	var out []types.Object
	addIdent := func(e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			obj = p.Info.Uses[id]
		}
		if obj != nil {
			out = append(out, obj)
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.ParenExpr, *ast.UnaryExpr:
			continue
		case *ast.AssignStmt:
			for _, l := range parent.Lhs {
				addIdent(l)
			}
			return out
		case *ast.ValueSpec:
			for _, name := range parent.Names {
				addIdent(name)
			}
			return out
		default:
			return nil
		}
	}
	return nil
}

// argConsumes reports whether placing a value at this argument of the
// call consumes it: the mask bit for functions of this package with
// plan parameters, true for every other callee (benefit of the doubt).
func (ps *planScan) argConsumes(call *ast.CallExpr, arg ast.Node) bool {
	idx := -1
	for i, a := range call.Args {
		if a == arg {
			idx = i
		}
	}
	if idx < 0 {
		// The value is the call's function operand or receiver, not
		// an argument: a method call on the plan, i.e. a read.
		return false
	}
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = ps.p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = ps.p.Info.Uses[fun.Sel]
	}
	if mask, ok := ps.consumers[obj]; ok {
		return idx < 64 && mask&(1<<idx) != 0
	}
	return true
}

// inspectWithStack is ast.Inspect with the ancestor chain (outermost
// first, excluding n itself) passed to the callback.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}
