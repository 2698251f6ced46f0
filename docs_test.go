package rtd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocIdentifiers: every qualified Go identifier in backticks in
// README.md, DESIGN.md and docs/ names something the module declares.
// The qualifier must be a module package (`cpu.StepUser`,
// `cpu.Config.ICache`) or an exported module type (`Cache.Hit`), and
// the name must start with an upper-case letter; it must resolve to a
// declaration, a method or a field. A composite literal's field
// (`core.Options{Scheme: ...}`) must be a field of its type. Fenced
// code blocks are not read, and docs/performance.md, the measurement
// log, keeps the names of its time.
func TestDocIdentifiers(t *testing.T) {
	m := parseModule(t)
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	spans := regexp.MustCompile("`[^`]+`")
	qualified := regexp.MustCompile(`(?:^|[^\w.])([A-Za-z_]\w*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	literal := regexp.MustCompile(`(?:^|[^\w.])((?:[a-z]\w*\.)?[A-Z]\w*)\{([A-Z]\w*):`)
	checked := 0
	for _, path := range append([]string{"README.md", "DESIGN.md"}, docs...) {
		if path == filepath.Join("docs", "performance.md") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, span := range spans.FindAllString(line, -1) {
				for _, g := range qualified.FindAllStringSubmatch(span, -1) {
					ok, known := m.resolve(g[1], g[2], g[3])
					if !known {
						continue
					}
					checked++
					if !ok {
						t.Errorf("%s:%d: %s does not resolve to a declaration, method or field",
							path, n+1, strings.TrimRight(g[1]+"."+g[2]+"."+g[3], "."))
					}
				}
				for _, g := range literal.FindAllStringSubmatch(span, -1) {
					q, typ, _ := strings.Cut(g[1], ".")
					if typ == "" {
						q, typ = "", q
					}
					var ok, known bool
					if q == "" {
						ok, known = m.resolve(typ, g[2], "")
					} else {
						ok, known = m.resolve(q, typ, g[2])
					}
					if !known {
						continue
					}
					checked++
					if !ok {
						t.Errorf("%s:%d: %s{%s: ...}: %s has no field %s", path, n+1, g[1], g[2], g[1], g[2])
					}
				}
			}
		}
	}
	if checked < 50 {
		t.Errorf("only %d qualified identifiers checked: the scan no longer reads the docs", checked)
	}
}

// module is what the docs may name: each package's top-level
// declarations and, per type, its fields and methods (promoted ones
// included).
type module struct {
	pkgs  map[string][]*modPkg // by package name
	types map[string][]*modPkg // by exported type name: the packages declaring one
}

type modPkg struct {
	top     map[string]bool
	members map[string]map[string]bool // type name -> field and method names
	embeds  map[string][]string        // type name -> embedded type names
	aliases map[string][2]string       // type name -> the package and type it aliases
}

// parseModule parses every non-test Go file of the module; the
// vendored code, testdata and bench/ (a module of its own) are left
// out, and so are main packages, which nothing can import.
func parseModule(t *testing.T) *module {
	t.Helper()
	m := &module{pkgs: map[string][]*modPkg{}, types: map[string][]*modPkg{}}
	byDir := map[string]*modPkg{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "vendor" || d.Name() == "testdata" || d.Name() == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		dir := filepath.Dir(path)
		p := byDir[dir]
		if p == nil {
			p = &modPkg{top: map[string]bool{}, members: map[string]map[string]bool{},
				embeds: map[string][]string{}, aliases: map[string][2]string{}}
			byDir[dir] = p
			m.pkgs[f.Name.Name] = append(m.pkgs[f.Name.Name], p)
		}
		p.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range byDir {
		for name := range p.members {
			if ast.IsExported(name) {
				m.types[name] = append(m.types[name], p)
			}
		}
	}
	return m
}

// member returns typ's field and method set.
func (p *modPkg) member(typ string) map[string]bool {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	return p.members[typ]
}

// add records f's top-level declarations, fields and methods.
func (p *modPkg) add(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.top[d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if s, ok := recv.(*ast.StarExpr); ok {
				recv = s.X
			}
			if ix, ok := recv.(*ast.IndexExpr); ok {
				recv = ix.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				p.member(id.Name)[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					p.top[s.Name.Name] = true
					p.member(s.Name.Name)
					p.addType(s)
				}
			}
		}
	}
}

func (p *modPkg) addType(s *ast.TypeSpec) {
	name := s.Name.Name
	if sel, ok := s.Type.(*ast.SelectorExpr); ok && s.Assign.IsValid() {
		if q, ok := sel.X.(*ast.Ident); ok {
			p.aliases[name] = [2]string{q.Name, sel.Sel.Name}
		}
		return
	}
	var fields *ast.FieldList
	switch t := s.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			p.member(name)[n.Name] = true
		}
		if len(f.Names) == 0 { // embedded: its name is its type's
			typ := f.Type
			if st, ok := typ.(*ast.StarExpr); ok {
				typ = st.X
			}
			switch e := typ.(type) {
			case *ast.Ident:
				p.member(name)[e.Name] = true
				p.embeds[name] = append(p.embeds[name], e.Name)
			case *ast.SelectorExpr:
				p.member(name)[e.Sel.Name] = true
			}
		}
	}
}

// has reports whether typ has a field or method name, directly or
// promoted from a type embedded from the same package, or through an
// alias of another package's type.
func (m *module) has(p *modPkg, typ, name string, depth int) bool {
	if depth > 8 {
		return false
	}
	if a, ok := p.aliases[typ]; ok {
		for _, q := range m.pkgs[a[0]] {
			if m.has(q, a[1], name, depth+1) {
				return true
			}
		}
		return false
	}
	if p.members[typ][name] {
		return true
	}
	for _, e := range p.embeds[typ] {
		if m.has(p, e, name, depth+1) {
			return true
		}
	}
	return false
}

// resolve checks q.a(.b): known reports whether q is a module package
// or an exported module type, ok whether the reference resolves.
func (m *module) resolve(q, a, b string) (ok, known bool) {
	if ps := m.pkgs[q]; len(ps) > 0 {
		for _, p := range ps {
			if !p.top[a] {
				continue
			}
			if b == "" || m.has(p, a, b, 0) {
				return true, true
			}
		}
		return false, true
	}
	if ps := m.types[q]; len(ps) > 0 {
		for _, p := range ps {
			if m.has(p, q, a, 0) {
				return true, true
			}
		}
		return false, true
	}
	return false, false
}
