package lint

import (
	"go/ast"
	"go/types"
	"path"
	"sort"
)

// ProbeConformCheck is the name of the probeconform analyzer.
const ProbeConformCheck = "probeconform"

// layerPackages are the instrumented layers of the simulated I/O
// stack; every telemetry-bearing type they declare must be reachable
// by the report plane.
var layerPackages = map[string]bool{
	"device": true, "raid": true, "cache": true, "fs": true,
	"nfs": true, "pfs": true, "netsim": true, "mpiio": true,
	"fault": true,
}

// ProbeConform returns the module-wide analyzer enforcing the
// telemetry-plane contract: every type in a layer package that holds
// a *telemetry.Recorder must expose it through a
// `Telemetry() *telemetry.Recorder` accessor (the telemetry.Probe
// hookup), and that accessor must be registered with a
// telemetry.Registry somewhere in the module — an unregistered probe
// records counters no report can ever see.
func ProbeConform() *Analyzer {
	return &Analyzer{
		Name: ProbeConformCheck,
		Doc: "Reports layer types (device/raid/cache/fs/nfs/pfs/netsim/mpiio/fault) " +
			"that hold telemetry counters without a Telemetry() accessor, or " +
			"whose accessor is never passed to a Registry.Register call " +
			"anywhere in the module.",
		RunModule: probeConformRun,
	}
}

func probeConformRun(pkgs []*Package) []Diagnostic {
	registered := registeredProbeTypes(pkgs)
	var out []Diagnostic
	for _, p := range pkgs {
		if !layerPackages[path.Base(p.Path)] {
			continue
		}
		scope := p.Types.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !holdsRecorder(st) {
				continue
			}
			if !hasTelemetryAccessor(named) {
				out = append(out, diag(p, tn.Pos(), ProbeConformCheck,
					"%s.%s holds a *telemetry.Recorder but has no Telemetry() *telemetry.Recorder accessor, so it cannot join a telemetry.Registry",
					path.Base(p.Path), name))
				continue
			}
			if !registered[tn] {
				out = append(out, diag(p, tn.Pos(), ProbeConformCheck,
					"%s.%s has a Telemetry() accessor that is never passed to a Registry.Register call; its counters are invisible to every report",
					path.Base(p.Path), name))
			}
		}
	}
	return out
}

// holdsRecorder reports whether the struct has a direct field of
// type *telemetry.Recorder.
func holdsRecorder(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if isRecorderPtr(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// isRecorderPtr matches the type *telemetry.Recorder (by package
// name, so fixture trees with their own telemetry package conform).
func isRecorderPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Recorder" && obj.Pkg() != nil && obj.Pkg().Name() == "telemetry"
}

// hasTelemetryAccessor reports whether *T (or T) has a method
// `Telemetry() *telemetry.Recorder`.
func hasTelemetryAccessor(named *types.Named) bool {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), "Telemetry")
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	res := fn.Type().(*types.Signature).Results()
	return res.Len() == 1 && isRecorderPtr(res.At(0).Type())
}

// registeredProbeTypes scans every package for calls of the shape
// X.Register(..., Y.Telemetry(), ...) and returns the set of type
// names whose Telemetry accessor reaches a Register call.
func registeredProbeTypes(pkgs []*Package) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Register" {
					return true
				}
				for _, arg := range call.Args {
					argCall, ok := arg.(*ast.CallExpr)
					if !ok {
						continue
					}
					argSel, ok := argCall.Fun.(*ast.SelectorExpr)
					if !ok || argSel.Sel.Name != "Telemetry" {
						continue
					}
					t := p.Info.TypeOf(argSel.X)
					if t == nil {
						continue
					}
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					if named, ok := t.(*types.Named); ok {
						out[named.Obj()] = true
					}
				}
				return true
			})
		}
	}
	return out
}
