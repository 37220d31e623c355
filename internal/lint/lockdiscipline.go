package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockDisciplineCheck is the name of the lockdiscipline analyzer.
const LockDisciplineCheck = "lockdiscipline"

// LockDiscipline returns the analyzer enforcing the repo's locking
// rules: a mutex locked in a function is released by a defer in that
// same function, and no exported module-internal function or method
// is called while the lock is held (the exact shape of the bug fixed
// in Session.Characterization, where a mutex held across
// Characterize serialized independent sweeps).
func LockDiscipline() *Analyzer {
	return &Analyzer{
		Name: LockDisciplineCheck,
		Doc: "Reports mu.Lock() without a same-function defer mu.Unlock(), " +
			"and calls to exported module-internal functions or methods made " +
			"while a mutex is held. Critical sections must be leaf code: " +
			"defer-scoped, and never re-entering the public API.",
		Run: lockDisciplineRun,
	}
}

// lockCall pairs a Lock/RLock call with its receiver expression.
type lockCall struct {
	call *ast.CallExpr
	recv string // canonical receiver text, e.g. "e.mu"
	read bool   // RLock rather than Lock
}

func lockDisciplineRun(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		funcScopes(f, func(body *ast.BlockStmt) {
			out = append(out, lockScope(p, body)...)
		})
	}
	return out
}

// lockScope checks one function body.
func lockScope(p *Package, body *ast.BlockStmt) []Diagnostic {
	var out []Diagnostic
	var locks []lockCall
	walkScope(body, func(n ast.Node) bool {
		if lc, ok := mutexCall(p, n, "Lock", "RLock"); ok {
			locks = append(locks, lc)
		}
		return true
	})
	for _, lc := range locks {
		unlock := "Unlock"
		if lc.read {
			unlock = "RUnlock"
		}
		deferred, manual := findUnlocks(p, body, lc, unlock)
		if !deferred.IsValid() {
			verb := lc.call.Pos() // report at the Lock
			if manual.IsValid() {
				out = append(out, diag(p, verb, LockDisciplineCheck,
					"%s.%s() released by a plain %s() instead of a same-function defer; an early return or panic between them leaks the lock",
					lc.recv, lockName(lc), unlock))
			} else {
				out = append(out, diag(p, verb, LockDisciplineCheck,
					"%s.%s() without a same-function defer %s.%s()", lc.recv, lockName(lc), lc.recv, unlock))
			}
		}
		// The critical section runs from the Lock to the manual
		// unlock, or to the end of the function when defer-released.
		end := body.End()
		if manual.IsValid() && !deferred.IsValid() {
			end = manual
		}
		out = append(out, exportedCallsWhileLocked(p, body, lc, end)...)
	}
	return out
}

// lockName returns the method name of the lock call.
func lockName(lc lockCall) string {
	if lc.read {
		return "RLock"
	}
	return "Lock"
}

// mutexCall matches a statement-level call recv.M() where recv is a
// sync.Mutex or sync.RWMutex and M is one of names.
func mutexCall(p *Package, n ast.Node, names ...string) (lockCall, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return lockCall{}, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockCall{}, false
	}
	matched := ""
	for _, name := range names {
		if sel.Sel.Name == name {
			matched = name
		}
	}
	if matched == "" {
		return lockCall{}, false
	}
	t := p.Info.TypeOf(sel.X)
	if t == nil {
		return lockCall{}, false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return lockCall{}, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return lockCall{}, false
	}
	return lockCall{call: call, recv: types.ExprString(sel.X), read: strings.HasPrefix(matched, "R")}, true
}

// findUnlocks locates, in the same function scope, a deferred and a
// plain call to recv.unlock(), returning their positions (invalid
// when absent). Only releases after the Lock count.
func findUnlocks(p *Package, body *ast.BlockStmt, lc lockCall, unlock string) (deferred, manual token.Pos) {
	walkScope(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if u, ok := mutexCall(p, n.Call, unlock); ok && u.recv == lc.recv && !deferred.IsValid() {
				deferred = n.Pos()
			}
		case *ast.ExprStmt:
			if u, ok := mutexCall(p, n.X, unlock); ok && u.recv == lc.recv &&
				n.Pos() > lc.call.End() && !manual.IsValid() {
				manual = n.Pos()
			}
		}
		return true
	})
	return deferred, manual
}

// exportedCallsWhileLocked flags calls to exported module-internal
// functions or methods between the Lock and end of the critical
// section. Standard-library callees (including the mutex's own
// methods) are exempt: the invariant is about re-entering this
// module's public API with a lock held.
func exportedCallsWhileLocked(p *Package, body *ast.BlockStmt, lc lockCall, end token.Pos) []Diagnostic {
	var out []Diagnostic
	walkScope(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= lc.call.End() || call.Pos() >= end {
			return true
		}
		var obj types.Object
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			obj = p.Info.Uses[fun.Sel]
		case *ast.Ident:
			obj = p.Info.Uses[fun]
		}
		fn, ok := obj.(*types.Func)
		if !ok || !fn.Exported() || fn.Pkg() == nil {
			return true
		}
		path := fn.Pkg().Path()
		if path != p.ModPath && !strings.HasPrefix(path, p.ModPath+"/") {
			return true
		}
		out = append(out, diag(p, call.Pos(), LockDisciplineCheck,
			"call to exported %s while %s is locked; critical sections must not re-enter the module's public API (move the call outside the lock)",
			fn.Name(), lc.recv))
		return true
	})
	return out
}
