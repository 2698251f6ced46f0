// Command loopgen writes internal/cpu/funct.go: the interpreter loop
// run (exec.go) once more for each untimed policy, and the functional
// policy's leaf core. run is written for the detailed policy, which it
// binds in its first statement, `const pol = detailed`; loopgen copies
// the function with that constant rebound and the function renamed, so
// the compiler folds every policy test in each copy and exec.go stays
// the one source to edit. The core is run's execute switch with the
// policy folded in by loopgen itself (core.go). Run it in internal/cpu
// with go generate.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path"
	"strconv"
)

// loops are the generated copies of run: their names and policies.
var loops = []struct{ name, pol string }{
	{"runWarm", "warm"},
	{"runFunctional", "functional"},
}

func main() {
	src, err := os.ReadFile("exec.go")
	if err == nil {
		var out []byte
		if out, err = generate(src); err == nil {
			err = os.WriteFile("funct.go", out, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "loopgen:", err)
		os.Exit(1)
	}
}

// generate returns funct.go for src, the contents of exec.go.
func generate(src []byte) ([]byte, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "exec.go", src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	fn := runDecl(f)
	if fn == nil {
		return nil, fmt.Errorf("exec.go declares no method run")
	}
	pol := policyConst(fn)
	if pol == nil {
		return nil, fmt.Errorf("run does not begin with const pol = detailed")
	}
	off := func(p token.Pos) int { return fset.Position(p).Offset }

	var body bytes.Buffer
	for _, l := range loops {
		fmt.Fprintf(&body, "\n// %s is run compiled for the %s policy.\n", l.name, l.pol)
		body.Write(src[off(fn.Pos()):off(fn.Name.Pos())])
		body.WriteString(l.name)
		body.Write(src[off(fn.Name.End()):off(pol.Pos())])
		body.WriteString(l.pol)
		body.Write(src[off(pol.End()):off(fn.End())])
		body.WriteString("\n")
	}
	// The core folds run's switch in place, so it works on its own parse.
	cf, err := parser.ParseFile(fset, "exec.go", src, 0)
	if err != nil {
		return nil, err
	}
	core, err := coreFunctional(fset, cf)
	if err != nil {
		return nil, err
	}
	body.Write(core)

	gen, err := parser.ParseFile(token.NewFileSet(), "funct.go", append([]byte("package cpu\n"), body.Bytes()...), 0)
	if err != nil {
		return nil, fmt.Errorf("generated code: %v", err)
	}
	var b bytes.Buffer
	b.WriteString("// Code generated by loopgen from run in exec.go; DO NOT EDIT.\n\npackage cpu\n\nimport (\n")
	used := map[string]bool{}
	for _, d := range gen.Decls {
		packagesUsed(d.(*ast.FuncDecl).Body, used)
	}
	for _, im := range f.Imports {
		p, err := strconv.Unquote(im.Path.Value)
		if err != nil {
			return nil, err
		}
		if used[path.Base(p)] {
			fmt.Fprintf(&b, "\t%q\n", p)
		}
	}
	b.WriteString(")\n")
	b.Write(body.Bytes())
	return format.Source(b.Bytes())
}

// runDecl is f's method run, or nil.
func runDecl(f *ast.File) *ast.FuncDecl {
	for _, d := range f.Decls {
		if d, ok := d.(*ast.FuncDecl); ok && d.Recv != nil && d.Name.Name == "run" {
			return d
		}
	}
	return nil
}

// policyConst is the value of fn's first statement when that is
// `const pol = detailed`, nil otherwise.
func policyConst(fn *ast.FuncDecl) *ast.Ident {
	if len(fn.Body.List) == 0 {
		return nil
	}
	d, ok := fn.Body.List[0].(*ast.DeclStmt)
	if !ok {
		return nil
	}
	g, ok := d.Decl.(*ast.GenDecl)
	if !ok || g.Tok != token.CONST || len(g.Specs) != 1 {
		return nil
	}
	v, ok := g.Specs[0].(*ast.ValueSpec)
	if !ok || len(v.Names) != 1 || v.Names[0].Name != "pol" || len(v.Values) != 1 {
		return nil
	}
	if id, ok := v.Values[0].(*ast.Ident); ok && id.Name == "detailed" {
		return id
	}
	return nil
}

// packagesUsed adds to used the packages body refers to: the
// unresolved identifiers it selects from.
func packagesUsed(body *ast.BlockStmt, used map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
				used[id.Name] = true
			}
		}
		return true
	})
}
