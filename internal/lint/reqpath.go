package lint

import (
	"go/ast"
	"go/types"
	"path"
)

// ReqPathCheck is the name of the reqpath analyzer.
const ReqPathCheck = "reqpath"

// reqPathPackages are the layers below the I/O library. The library
// (mpiio) is the application-facing boundary where requests are born,
// so its public surface keeps MPI-style (proc, rank, ...) signatures;
// every layer beneath it must be request-threaded — an exported entry
// point taking a bare *sim.Proc has no span stack, no op class, and
// no fault tags, so its work is invisible to the path profile.
var reqPathPackages = map[string]bool{
	"device": true, "raid": true, "cache": true, "fs": true,
	"nfs": true, "pfs": true, "netsim": true,
}

// ReqPath returns the analyzer enforcing the request-path signature
// contract: exported entry points of the layers below the I/O
// library take *ioreq.Request instead of *sim.Proc. Span begin/end
// balance — formerly a syntactic any-Pop-in-the-body check here — is
// enforced path-sensitively by the spanbalance analyzer.
func ReqPath() *Analyzer {
	return &Analyzer{
		Name: ReqPathCheck,
		Doc: "Reports exported functions in the layers below the I/O library " +
			"(device/raid/cache/fs/nfs/pfs/netsim) that take a *sim.Proc " +
			"parameter instead of *ioreq.Request, losing spans, op class, " +
			"and fault tags for the whole descent.",
		Run: reqPathRun,
	}
}

func reqPathRun(p *Package) []Diagnostic {
	base := path.Base(p.Path)
	if !reqPathPackages[base] {
		return nil
	}
	var out []Diagnostic
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			out = append(out, checkProcParams(p, base, fd)...)
		}
	}
	return out
}

// checkProcParams flags *sim.Proc parameters on an exported layer
// entry point.
func checkProcParams(p *Package, base string, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	for _, field := range fd.Type.Params.List {
		if isProcPtr(p.Info.TypeOf(field.Type)) {
			out = append(out, diag(p, field.Pos(), ReqPathCheck,
				"exported %s.%s takes a *sim.Proc; request-path entry points below the I/O library must take a *ioreq.Request so spans, op class, and fault tags survive the descent",
				base, fd.Name.Name))
		}
	}
	return out
}

// isProcPtr matches *sim.Proc (by package name, so fixture trees with
// their own sim package conform).
func isProcPtr(t types.Type) bool {
	return isNamedPtr(t, "sim", "Proc")
}

// isRequestPtr matches *ioreq.Request.
func isRequestPtr(t types.Type) bool {
	return isNamedPtr(t, "ioreq", "Request")
}

// isRecorderRef matches *telemetry.Recorder.
func isRecorderRef(t types.Type) bool {
	return isNamedPtr(t, "telemetry", "Recorder")
}

// isNamedPtr matches a pointer to pkg.Name.
func isNamedPtr(t types.Type, pkg, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkg
}
