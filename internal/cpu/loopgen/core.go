package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/token"
	"strings"
)

// The functional policy's leaf core is run's execute switch in a loop
// of its own with few live values. loopgen folds the policy into the
// switch's cases (an if on the policy keeps its taken branch, a charge
// from a method that returns 0 under the policy goes, statements after
// a break go) and rewrites each error exit, `err = e; goto fail`, into
// a handback. run takes every error exit before its instruction
// changes any state (a refused store stores nothing), so the core
// returns there and the loop executes the instruction again and raises
// the error. A case
// that still needs the loop (it sets lim for the stop checks, or reads
// a loop local the core does not hold) hands back whole, as does every
// op the switch does not name.

// corePolicy is the policy the core is compiled for.
const corePolicy = "functional"

// coreLocals are the locals of run that the core holds under the same
// names and meanings (n counts retirements since the loop's last
// flush in both). A case that refers to any other local of run hands
// back.
var coreLocals = map[string]bool{"c": true, "r": true, "p": true, "pc": true, "next": true, "inH": true, "lastLoad": true, "n": true}

const coreHead = `
// coreFunctional is run's execute switch compiled as a leaf for the
// functional policy, generated by loopgen from run's own switch. From
// pc it executes the records of the window (base, rec) with register
// file r, in the handler when inH, while n, the retirements since the
// loop's last flush, is below lim. It gives control back at a pc
// outside the window or an undecoded record, and before any state
// changes at an access the loop must refuse or an op only the loop
// runs: %s and every op the switch does not name.
// It returns the pc, n and the last load destination.
func (c *CPU) coreFunctional(pc, base uint32, rec []pinstr, r *[32]uint32, inH bool, lastLoad int, n, lim uint64) (uint32, uint64, int) {
	for ; n < lim; n++ {
		i := bits.RotateLeft32(pc-base, -2)
		if uint(i) >= uint(len(rec)) || rec[i].op == pUndecoded {
			break
		}
		p := &rec[i]
		lastLoad = int(p.ldst)
		next := pc + 4
`

const coreTail = `
		pc = next
	}
	return pc, n, lastLoad
}
`

// coreFunctional returns the source of the core, made from run in f.
func coreFunctional(fset *token.FileSet, f *ast.File) ([]byte, error) {
	fn := runDecl(f)
	sw := executeSwitch(fn)
	if sw == nil {
		return nil, fmt.Errorf("run has no switch on p.op")
	}
	fo := folder{pol: corePolicy, zero: zeroMethods(f, corePolicy), run: fn, sw: sw}
	var kept []ast.Stmt
	var back []string
	var def *ast.CaseClause
	for _, s := range sw.Body.List {
		cc := s.(*ast.CaseClause)
		body, ok := fo.caseBody(cc.Body)
		switch {
		case cc.List == nil:
			if ok && !isHandback(body) {
				return nil, fmt.Errorf("run's default case is not a handback")
			}
			def = cc
			continue
		case !ok || isHandback(body):
			for _, e := range cc.List {
				back = append(back, e.(*ast.Ident).Name)
			}
			continue
		}
		cc.Body = body
		kept = append(kept, cc)
	}
	if def == nil {
		return nil, fmt.Errorf("run's switch has no default case")
	}
	def.Body = []ast.Stmt{handbackStmt()}
	sw.Body.List = append(kept, def)

	var b bytes.Buffer
	fmt.Fprintf(&b, coreHead, strings.Join(back, ", "))
	var cases bytes.Buffer
	if err := format.Node(&cases, fset, sw); err != nil {
		return nil, err
	}
	// Folded statements leave their lines behind as blank ones.
	for _, l := range strings.SplitAfter(cases.String(), "\n") {
		if strings.TrimSpace(l) != "" {
			b.WriteString(l)
		}
	}
	b.WriteString(coreTail)
	return b.Bytes(), nil
}

// executeSwitch is run's switch on p.op, or nil.
func executeSwitch(fn *ast.FuncDecl) *ast.SwitchStmt {
	var sw *ast.SwitchStmt
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SwitchStmt); ok && sw == nil {
			if sel, ok := s.Tag.(*ast.SelectorExpr); ok && isIdent(sel.X, "p") && sel.Sel.Name == "op" {
				sw = s
			}
		}
		return sw == nil
	})
	return sw
}

// zeroMethods names the methods in f that begin `if pol == <pol> {
// return 0 }`: under that policy a call returns 0 and changes nothing.
func zeroMethods(f *ast.File, pol string) map[string]bool {
	zero := map[string]bool{}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv == nil || len(fn.Body.List) == 0 {
			continue
		}
		is, ok := fn.Body.List[0].(*ast.IfStmt)
		if !ok || is.Init != nil || is.Else != nil || len(is.Body.List) != 1 {
			continue
		}
		v, known := policyTest(is.Cond, pol)
		ret, isRet := is.Body.List[0].(*ast.ReturnStmt)
		if known && v && isRet && len(ret.Results) == 1 && isLit(ret.Results[0], "0") {
			zero[fn.Name.Name] = true
		}
	}
	return zero
}

// folder folds one policy into the cases of run's switch sw.
type folder struct {
	pol  string
	zero map[string]bool // zeroMethods under pol
	run  *ast.FuncDecl
	sw   *ast.SwitchStmt
}

// caseBody is a case's statements compiled for the core, and whether
// the core can run them at all.
func (fo *folder) caseBody(list []ast.Stmt) ([]ast.Stmt, bool) {
	list = fo.stmts(list)
	if n := len(list); n > 0 {
		if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.BREAK && br.Label == nil {
			list = list[:n-1] // the case ends there anyway
		}
	}
	list = errorExits(list)
	ok := true
	for _, s := range list {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				ok = ok && !fo.loopLocal(n)
			case *ast.BranchStmt:
				ok = ok && n.Tok != token.GOTO
			}
			return ok
		})
	}
	return list, ok
}

// loopLocal reports whether id names a parameter of run, or a local it
// declares outside its switch, that the core does not hold.
func (fo *folder) loopLocal(id *ast.Ident) bool {
	if id.Obj == nil || coreLocals[id.Name] {
		return false
	}
	p := id.Obj.Pos()
	return fo.run.Pos() <= p && p < fo.run.End() && !(fo.sw.Pos() <= p && p < fo.sw.End())
}

// stmts folds the policy into list.
func (fo *folder) stmts(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range list {
		switch s := s.(type) {
		case *ast.IfStmt:
			out = append(out, fo.ifStmt(s)...)
		case *ast.AssignStmt:
			if !fo.zeroCharge(s) {
				out = append(out, s)
			}
		case *ast.BlockStmt:
			s.List = fo.stmts(s.List)
			out = append(out, s)
		default:
			out = append(out, s)
		}
		if n := len(out); n > 0 && terminates(out[n-1]) {
			break // what follows is dead
		}
	}
	return out
}

// ifStmt folds the policy into s: the branch a policy test takes, or s
// with its body and else block folded. An else-if it leaves unfolded
// keeps its policy tests, so its case hands back.
func (fo *folder) ifStmt(s *ast.IfStmt) []ast.Stmt {
	if v, known := policyTest(s.Cond, fo.pol); known && s.Init == nil {
		switch {
		case v:
			return fo.stmts(s.Body.List)
		case s.Else != nil:
			return fo.stmts([]ast.Stmt{s.Else})
		}
		return nil
	}
	s.Body.List = fo.stmts(s.Body.List)
	if e, ok := s.Else.(*ast.BlockStmt); ok {
		e.List = fo.stmts(e.List)
	}
	return []ast.Stmt{s}
}

// zeroCharge reports whether s is `x += c.m(args)` for a zero method m
// whose arguments are plain names: under the policy it adds 0.
func (fo *folder) zeroCharge(s *ast.AssignStmt) bool {
	if s.Tok != token.ADD_ASSIGN || len(s.Rhs) != 1 {
		return false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isIdent(sel.X, "c") || !fo.zero[sel.Sel.Name] {
		return false
	}
	for _, a := range call.Args {
		if _, ok := a.(*ast.Ident); !ok {
			return false
		}
	}
	return true
}

// policyTest evaluates e when pol decides it: e is built from
// `pol == name` and `pol != name` tests with !, && and ||.
func policyTest(e ast.Expr, pol string) (v, known bool) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return policyTest(e.X, pol)
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			v, known := policyTest(e.X, pol)
			return !v, known
		}
	case *ast.BinaryExpr:
		switch e.Op {
		case token.EQL, token.NEQ:
			if isIdent(e.X, "pol") {
				if id, ok := e.Y.(*ast.Ident); ok {
					return (id.Name == pol) == (e.Op == token.EQL), true
				}
			}
		case token.LAND, token.LOR:
			and := e.Op == token.LAND
			x, kx := policyTest(e.X, pol)
			y, ky := policyTest(e.Y, pol)
			switch {
			case kx && x != and || ky && y != and:
				return !and, true // false && _, true || _
			case kx && ky:
				return and, true
			}
		}
	}
	return false, false
}

// errorExits rewrites run's error exits in list, `err = e; goto fail`,
// into handbacks.
func errorExits(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for i := 0; i < len(list); i++ {
		if i+1 < len(list) && isErrAssign(list[i]) && isGotoFail(list[i+1]) {
			out = append(out, handbackStmt())
			i++
			continue
		}
		if s, ok := list[i].(*ast.IfStmt); ok {
			s.Body.List = errorExits(s.Body.List)
			if e, ok := s.Else.(*ast.BlockStmt); ok {
				e.List = errorExits(e.List)
			}
		}
		out = append(out, list[i])
	}
	return out
}

func isErrAssign(s ast.Stmt) bool {
	a, ok := s.(*ast.AssignStmt)
	return ok && a.Tok == token.ASSIGN && len(a.Lhs) == 1 && isIdent(a.Lhs[0], "err")
}

func isGotoFail(s ast.Stmt) bool {
	b, ok := s.(*ast.BranchStmt)
	return ok && b.Tok == token.GOTO && b.Label.Name == "fail"
}

// handbackStmt is the core's return at an instruction it does not
// execute.
func handbackStmt() ast.Stmt {
	return &ast.ReturnStmt{Results: []ast.Expr{ast.NewIdent("pc"), ast.NewIdent("n"), ast.NewIdent("lastLoad")}}
}

// isHandback reports whether a case body does nothing but hand back.
func isHandback(list []ast.Stmt) bool {
	if len(list) != 1 {
		return false
	}
	r, ok := list[0].(*ast.ReturnStmt)
	return ok && len(r.Results) == 3 && isIdent(r.Results[0], "pc") && isIdent(r.Results[1], "n") && isIdent(r.Results[2], "lastLoad")
}

// terminates reports whether control never passes s.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.BranchStmt:
		return s.Tok != token.FALLTHROUGH
	case *ast.ReturnStmt:
		return true
	}
	return false
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isLit(e ast.Expr, v string) bool {
	l, ok := e.(*ast.BasicLit)
	return ok && l.Value == v
}
