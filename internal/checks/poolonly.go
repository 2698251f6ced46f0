package checks

import (
	"flag"
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// PoolOnly flags raw `go` statements and hand-rolled sync.WaitGroup
// fan-out outside internal/parallel. The ordered pool is the only
// concurrency primitive whose delivery order is proven deterministic
// (byte-identical output for any worker count); ad-hoc goroutines
// reintroduce scheduling order as an observable. Infrastructure
// goroutines that never touch simulated output (a timeout watchdog)
// carry //cccheck:allow(pool) annotations.
var PoolOnly = &analysis.Analyzer{
	Name:     "poolonly",
	Doc:      "route all concurrency through the internal/parallel ordered pool",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runPoolOnly,
}

func init() {
	PoolOnly.Flags.Init("poolonly", flag.ExitOnError)
	PoolOnly.Flags.String("pkg", "repro/internal/parallel",
		"import path of the package allowed to own goroutines and WaitGroups")
}

func runPoolOnly(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Path() == pass.Analyzer.Flags.Lookup("pkg").Value.String() {
		return nil, nil
	}
	allow := buildAllowIndex(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	report := func(n ast.Node, format string, args ...interface{}) {
		if inTestFile(pass.Fset, n.Pos()) || allow.allowed(pass.Fset, n.Pos(), "pool") {
			return
		}
		pass.Reportf(n.Pos(), format, args...)
	}

	ins.Preorder([]ast.Node{(*ast.GoStmt)(nil), (*ast.Ident)(nil)}, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			report(n, "raw go statement outside internal/parallel: fan out through parallel.ForEachOrdered/Map so delivery order stays deterministic")
		case *ast.Ident:
			// A declaration whose type is sync.WaitGroup (directly or
			// behind a pointer) is hand-rolled fan-out plumbing.
			obj, ok := pass.TypesInfo.Defs[n].(*types.Var)
			if !ok {
				return
			}
			if isWaitGroup(obj.Type()) {
				report(n, "hand-rolled sync.WaitGroup outside internal/parallel: use the ordered pool instead")
			}
		}
	})
	return nil, nil
}

func isWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
