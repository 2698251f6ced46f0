package checks

import (
	"flag"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Default hook surface: the optional observation points threaded
// through the simulator. A nil hook must cost one pointer compare, so
// every invocation must be dominated by a nil check on the same
// selector path.
const (
	defaultHookFields = "Tel,Obs,OnBurst,OnResolve,Trace,OnCommit,OnKey"
	defaultHookTypes  = "TelemetrySink,Observer"
)

// HookGuard proves that every call through a telemetry/observer hook
// field is dominated by a nil check of that exact selector. Recognised
// dominators:
//
//	if x.Hook != nil { x.Hook(...) }            // guard block
//	if x.Hook == nil { return }; x.Hook(...)    // early exit
//	h := x.Hook; if h != nil { h(...) }         // local alias
//
// Assigning to the hook (or to any prefix of the selector path)
// invalidates the guard from that point on.
var HookGuard = &analysis.Analyzer{
	Name:     "hookguard",
	Doc:      "require every telemetry/observer hook invocation to be nil-check dominated",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runHookGuard,
}

func init() {
	HookGuard.Flags.Init("hookguard", flag.ExitOnError)
	HookGuard.Flags.String("fields", defaultHookFields,
		"comma-separated struct field names treated as hooks")
	HookGuard.Flags.String("types", defaultHookTypes,
		"comma-separated named interface types treated as hooks")
}

func csvSet(s string) map[string]bool {
	m := map[string]bool{}
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			m[e] = true
		}
	}
	return m
}

type hookChecker struct {
	pass    *analysis.Pass
	allow   allowIndex
	fields  map[string]bool
	types   map[string]bool
	aliases map[string]bool // local idents bound to a hook value
}

func runHookGuard(pass *analysis.Pass) (interface{}, error) {
	hc := &hookChecker{
		pass:   pass,
		allow:  buildAllowIndex(pass),
		fields: csvSet(pass.Analyzer.Flags.Lookup("fields").Value.String()),
		types:  csvSet(pass.Analyzer.Flags.Lookup("types").Value.String()),
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		hc.aliases = map[string]bool{}
		hc.walkStmts(fd.Body.List, map[string]bool{})
	})
	return nil, nil
}

// isHookType reports whether t is (or points to) a named type whose
// name is in the hook-type set, or a func type reached through a hook
// field.
func (hc *hookChecker) isHookType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return hc.types[n.Obj().Name()]
	}
	return false
}

// hookSelector returns the selector string to be nil-checked if call
// invokes a hook, or "" otherwise.
func (hc *hookChecker) hookSelector(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		// Direct call of a local func value: a hook only if aliased
		// from a hook field.
		if hc.aliases[fun.Name] {
			return fun.Name
		}
	case *ast.SelectorExpr:
		// x.F(...) — F is a func-typed hook field (by name, or by a
		// named hook type).
		if obj, ok := hc.pass.TypesInfo.Uses[fun.Sel].(*types.Var); ok && obj.IsField() {
			if _, isFunc := obj.Type().Underlying().(*types.Signature); isFunc &&
				(hc.fields[fun.Sel.Name] || hc.isHookType(obj.Type())) {
				return selectorString(fun)
			}
		}
		// x.F.M(...) or h.M(...) — method call through an
		// interface-typed hook field or a local alias of one.
		if _, isMethod := hc.pass.TypesInfo.Uses[fun.Sel].(*types.Func); isMethod {
			switch r := ast.Unparen(fun.X).(type) {
			case *ast.SelectorExpr:
				if obj, ok := hc.pass.TypesInfo.Uses[r.Sel].(*types.Var); ok && obj.IsField() &&
					(hc.fields[r.Sel.Name] || hc.isHookType(obj.Type())) {
					return selectorString(r)
				}
			case *ast.Ident:
				if hc.aliases[r.Name] {
					return r.Name
				}
			}
		}
	}
	return ""
}

// hookValue reports whether e reads a hook field or alias, for alias
// tracking on assignment.
func (hc *hookChecker) hookValue(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if obj, ok := hc.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && obj.IsField() {
			if hc.fields[x.Sel.Name] || hc.isHookType(obj.Type()) {
				return true
			}
		}
	case *ast.Ident:
		return hc.aliases[x.Name]
	}
	return false
}

// nilCompares extracts the selector strings compared against nil with
// the given operator, following && for != (conjunctive guards) and ||
// for == (disjunctive early exits).
func nilCompares(cond ast.Expr, op token.Token) []string {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	join := token.LAND
	if op == token.EQL {
		join = token.LOR
	}
	if b.Op == join {
		return append(nilCompares(b.X, op), nilCompares(b.Y, op)...)
	}
	if b.Op != op {
		return nil
	}
	var other ast.Expr
	if isNilIdent(b.X) {
		other = b.Y
	} else if isNilIdent(b.Y) {
		other = b.X
	} else {
		return nil
	}
	if s := selectorString(ast.Unparen(other)); s != "" {
		return []string{s}
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether the block always leaves the enclosing
// scope: return, branch, panic, or a runtime exit.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				return fun.Name == "panic"
			case *ast.SelectorExpr:
				name := fun.Sel.Name
				return name == "Exit" || name == "Fatal" || name == "Fatalf" || name == "Goexit"
			}
		}
	}
	return false
}

func union(a map[string]bool, extra []string) map[string]bool {
	if len(extra) == 0 {
		return a
	}
	out := make(map[string]bool, len(a)+len(extra))
	for k := range a {
		out[k] = true
	}
	for _, k := range extra {
		out[k] = true
	}
	return out
}

// invalidate removes guards (and aliases) whose selector path starts
// with the assigned expression — writing to x or x.Hook voids any
// earlier nil check of x.Hook.
func (hc *hookChecker) invalidate(guarded map[string]bool, lhs ast.Expr) {
	s := selectorString(ast.Unparen(lhs))
	if s == "" {
		return
	}
	for k := range guarded {
		if k == s || strings.HasPrefix(k, s+".") {
			delete(guarded, k)
		}
	}
	delete(hc.aliases, s)
}

// checkExpr reports unguarded hook calls in an expression tree,
// descending into nested function literals (which inherit the guards
// of their construction site).
func (hc *hookChecker) checkExpr(e ast.Expr, guarded map[string]bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			hc.walkStmts(n.Body.List, guarded)
			return false
		case *ast.CallExpr:
			if sel := hc.hookSelector(n); sel != "" && !guarded[sel] {
				if !hc.allow.allowed(hc.pass.Fset, n.Pos(), "hook") &&
					!inTestFile(hc.pass.Fset, n.Pos()) {
					hc.pass.Reportf(n.Pos(), "hook call %s(...) is not dominated by a nil check of %s", sel, sel)
				}
			}
		}
		return true
	})
}

// walkStmts is the guard-tracking walker: a flow-insensitive-enough
// approximation that understands the three guard idioms and guard
// invalidation on assignment.
func (hc *hookChecker) walkStmts(stmts []ast.Stmt, guarded map[string]bool) {
	// Copy: guards established here must not leak to the caller.
	g := union(guarded, nil)
	if g == nil {
		g = map[string]bool{}
	}
	for _, s := range stmts {
		hc.walkStmt(s, g)
	}
}

func (hc *hookChecker) walkStmt(s ast.Stmt, g map[string]bool) {
	switch s := s.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			hc.walkStmt(s.Init, g)
		}
		hc.checkExpr(s.Cond, g)
		hc.walkStmts(s.Body.List, union(g, nilCompares(s.Cond, token.NEQ)))
		if s.Else != nil {
			eg := union(g, nilCompares(s.Cond, token.EQL))
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				hc.walkStmts(e.List, eg)
			case *ast.IfStmt:
				hc.walkStmt(e, eg)
			}
		}
		// `if x.Hook == nil { return }` guards the rest of the block.
		if terminates(s.Body) {
			for _, sel := range nilCompares(s.Cond, token.EQL) {
				g[sel] = true
			}
		}
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			hc.checkExpr(r, g)
		}
		// Assignment invalidates stale guards/aliases first; then
		// `h := x.Hook` re-registers h as a hook reference.
		for _, l := range s.Lhs {
			hc.invalidate(g, l)
		}
		if len(s.Lhs) == len(s.Rhs) {
			for i, l := range s.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok && hc.hookValue(s.Rhs[i]) {
					hc.aliases[id.Name] = true
				}
			}
		}
	case *ast.BlockStmt:
		hc.walkStmts(s.List, g)
	case *ast.ForStmt:
		if s.Init != nil {
			hc.walkStmt(s.Init, g)
		}
		hc.checkExpr(s.Cond, g)
		hc.walkStmts(s.Body.List, g)
	case *ast.RangeStmt:
		hc.checkExpr(s.X, g)
		hc.walkStmts(s.Body.List, g)
	case *ast.SwitchStmt:
		if s.Init != nil {
			hc.walkStmt(s.Init, g)
		}
		hc.checkExpr(s.Tag, g)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			cg := g
			// `switch { case x.Hook != nil: ... }` guards that body.
			if s.Tag == nil {
				for _, cond := range cc.List {
					cg = union(cg, nilCompares(cond, token.NEQ))
				}
			}
			for _, cond := range cc.List {
				hc.checkExpr(cond, g)
			}
			hc.walkStmts(cc.Body, cg)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			hc.walkStmts(c.(*ast.CaseClause).Body, g)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			if comm.Comm != nil {
				hc.walkStmt(comm.Comm, g)
			}
			hc.walkStmts(comm.Body, g)
		}
	case *ast.LabeledStmt:
		hc.walkStmt(s.Stmt, g)
	case *ast.ExprStmt:
		hc.checkExpr(s.X, g)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			hc.checkExpr(r, g)
		}
	case *ast.DeferStmt:
		hc.checkExpr(s.Call.Fun, g)
		for _, a := range s.Call.Args {
			hc.checkExpr(a, g)
		}
		if sel := hc.hookSelector(s.Call); sel != "" && !g[sel] {
			if !hc.allow.allowed(hc.pass.Fset, s.Call.Pos(), "hook") &&
				!inTestFile(hc.pass.Fset, s.Call.Pos()) {
				hc.pass.Reportf(s.Call.Pos(), "deferred hook call %s(...) is not dominated by a nil check of %s", sel, sel)
			}
		}
	case *ast.GoStmt:
		hc.checkExpr(s.Call.Fun, g)
		for _, a := range s.Call.Args {
			hc.checkExpr(a, g)
		}
	case *ast.SendStmt:
		hc.checkExpr(s.Chan, g)
		hc.checkExpr(s.Value, g)
	case *ast.IncDecStmt:
		hc.checkExpr(s.X, g)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok {
					for i, v := range vs.Values {
						hc.checkExpr(v, g)
						if i < len(vs.Names) && hc.hookValue(v) {
							hc.aliases[vs.Names[i].Name] = true
						}
					}
				}
			}
		}
	}
}
