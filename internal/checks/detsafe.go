package checks

import (
	"flag"
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// defaultDetPkgs is the deterministic core: every package whose output
// feeds a bit-identity proof (the equivalence battery, the diffsim
// lockstep, the ccbench sim axis, the emitter byte-identity battery).
// Matched as path suffixes/segments against the package import path.
const defaultDetPkgs = "repro," +
	"internal/cpu,internal/cache,internal/mem,internal/bpred," +
	"internal/decomp,internal/isa,internal/program,internal/diffsim," +
	"internal/telemetry,internal/experiment,internal/perfwatch," +
	"internal/profile,internal/fastpath," +
	"internal/core,internal/verify,internal/selective,internal/placement," +
	"internal/compress,internal/synth,internal/trace,internal/parallel," +
	"internal/asm,internal/minic,internal/analysis,internal/codec"

// DetSafe reports sources of run-to-run nondeterminism inside the
// deterministic packages: time.Now, environment reads, the unseeded
// global math/rand source, and map iteration that writes to an output
// stream. perfwatch's trajectory-entry timestamp is the one legitimate
// clock read; it carries a //cccheck:allow(det) annotation.
var DetSafe = &analysis.Analyzer{
	Name: "detsafe",
	Doc: "forbid time.Now, os.Getenv, unseeded math/rand, and map-ordered output " +
		"in the deterministic simulation packages",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runDetSafe,
}

func init() {
	DetSafe.Flags.Init("detsafe", flag.ExitOnError)
	DetSafe.Flags.String("pkgs", defaultDetPkgs,
		"comma-separated package path suffixes bound by the determinism contract")
}

// detPkgBound reports whether path falls under the determinism
// contract per the pkgs flag.
func detPkgBound(path, pkgs string) bool {
	for _, e := range strings.Split(pkgs, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if path == e || strings.HasSuffix(path, "/"+e) || strings.Contains(path, "/"+e+"/") {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call to the *types.Func it invokes (static
// calls and method calls; nil for calls through function values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

func runDetSafe(pass *analysis.Pass) (interface{}, error) {
	pkgs := pass.Analyzer.Flags.Lookup("pkgs").Value.String()
	if !detPkgBound(pass.Pkg.Path(), pkgs) {
		return nil, nil
	}
	allow := buildAllowIndex(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	report := func(n ast.Node, format string, args ...interface{}) {
		if inTestFile(pass.Fset, n.Pos()) || allow.allowed(pass.Fset, n.Pos(), "det") {
			return
		}
		pass.Reportf(n.Pos(), format, args...)
	}

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil), (*ast.RangeStmt)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			f := calleeFunc(pass.TypesInfo, n)
			if f == nil || f.Pkg() == nil {
				return
			}
			switch f.Pkg().Path() {
			case "time":
				if f.Name() == "Now" {
					report(n, "time.Now in deterministic package %s: host clocks may not influence simulated output", pass.Pkg.Path())
				}
			case "os":
				switch f.Name() {
				case "Getenv", "LookupEnv", "Environ":
					report(n, "os.%s in deterministic package %s: environment reads make runs irreproducible", f.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				// Package-level functions draw from the shared global
				// source; only explicit rand.New(rand.NewSource(seed))
				// constructions are reproducible. Constructors are fine.
				if f.Type().(*types.Signature).Recv() == nil && !strings.HasPrefix(f.Name(), "New") {
					report(n, "%s.%s uses the unseeded global source; derive a *rand.Rand from an explicit seed", f.Pkg().Path(), f.Name())
				}
			}
		case *ast.RangeStmt:
			tv, ok := pass.TypesInfo.Types[n.X]
			if !ok {
				return
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return
			}
			if out := findOutputWrite(pass.TypesInfo, n.Body); out != nil {
				report(n, "map iteration drives %s: map order is nondeterministic, so emitted bytes differ between runs; iterate sorted keys", outputDesc(pass.TypesInfo, out))
			}
		}
	})
	return nil, nil
}

// findOutputWrite returns the first node inside body that emits bytes to
// an output stream — a call to fmt.Fprint*, a Write*/Print*/Encode*/Emit*
// method, or a channel send. Pure aggregation (sums, building maps,
// collecting keys for a later sort) is not flagged.
func findOutputWrite(info *types.Info, body *ast.BlockStmt) (found ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = n
			return false
		case *ast.CallExpr:
			f := calleeFunc(info, n)
			if f == nil {
				return true
			}
			if f.Pkg() != nil && f.Pkg().Path() == "fmt" && strings.HasPrefix(f.Name(), "Fprint") {
				found = n
				return false
			}
			if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
				for _, p := range []string{"Write", "Print", "Encode", "Emit"} {
					if strings.HasPrefix(f.Name(), p) {
						found = n
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

func outputDesc(info *types.Info, n ast.Node) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return "a channel send"
	case *ast.CallExpr:
		if f := calleeFunc(info, n); f != nil {
			return "a call to " + f.Name()
		}
	}
	return "an output write"
}
