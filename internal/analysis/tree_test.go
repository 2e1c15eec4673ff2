package analysis_test

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"holdcsim/internal/analysis"
)

// uncalled is the whole allowlist of TestNoFuncWithoutCaller: functions
// under internal/ that stay although no non-test code calls them.
var uncalled = map[string]string{
	"holdcsim/internal/network.Network.EnableRateAdaptation": "Table I's pinned capability row claims adaptive link rate; ROADMAP item 5's paper table gives it a scenario word or deletes it",
	"holdcsim/internal/server.Server.SetCorePState":          "Table I's pinned capability row claims per-core DVFS; same decision as EnableRateAdaptation",
}

// stdInterfaces are the standard-library packages whose interfaces a
// method may exist to satisfy without any first-party code naming it
// (encoding/json finds MarshalText by reflection, sort calls Less).
var stdInterfaces = []string{"encoding", "encoding/json", "fmt", "sort", "container/heap", "flag", "io"}

// funcKey names a function or method independently of which typechecker
// universe its object came from: every package is typechecked on its own
// against export data, so a use in one package and the declaration in
// another are different objects with the same key.
func funcKey(f *types.Func) string {
	f = f.Origin()
	if f.Pkg() == nil {
		return f.Name()
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			return f.Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
		}
	}
	return f.Pkg().Path() + "." + f.Name()
}

// declaredNames is what one declaration unit (a function, or one spec of
// a const/var/type group) declares.
func declaredNames(u ast.Node) []*ast.Ident {
	switch u := u.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{u.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{u.Name}
	case *ast.ValueSpec:
		return u.Names
	}
	return nil
}

// tracked reports whether TestNoFuncWithoutCaller demands a user for obj,
// declared in package path: functions under internal/, and functions,
// types and constants of the root facade.
func tracked(path string, obj types.Object) bool {
	switch obj := obj.(type) {
	case *types.Func:
		return (strings.HasPrefix(path, "holdcsim/internal/") || path == "holdcsim") &&
			obj.Name() != "init" && obj.Name() != "_" && !takesTesting(obj)
	case *types.TypeName, *types.Const:
		return path == "holdcsim"
	}
	return false
}

// takesTesting reports whether fn has a parameter from package testing
// (*testing.T, testing.TB, ...): such a function is test support by
// signature — only a test can call it — however its file is named.
func takesTesting(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	for i := 0; i < params.Len(); i++ {
		if n := namedOf(params.At(i).Type()); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "testing" {
			return true
		}
	}
	return false
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// objKey is funcKey for any package-level object: a type or constant is
// named by its package path and name.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return funcKey(fn)
	}
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// The three tests below hold the whole tree, not a fixture, to a property
// on every `go test ./...`: they load every non-test package of the
// module once, from the module root.
var tree, bench struct {
	once sync.Once
	pkgs []*analysis.Package
	err  error
}

func loadTree(t *testing.T) []*analysis.Package {
	t.Helper()
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	tree.once.Do(func() { tree.pkgs, tree.err = analysis.Load("../..", []string{"./..."}) })
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.pkgs
}

// loadTreeAndBench adds the frozen bench/ module to the tree: it counts
// as a user because it cannot change.
func loadTreeAndBench(t *testing.T) []*analysis.Package {
	t.Helper()
	pkgs := loadTree(t)
	bench.once.Do(func() { bench.pkgs, bench.err = analysis.Load("../../bench", []string{"./..."}) })
	if bench.err != nil {
		t.Fatal(bench.err)
	}
	return slices.Concat(pkgs, bench.pkgs)
}

// TestTreeHasNoFindings is the "zero findings tree-wide" bar as a tier-1
// test: the determinism check over ./..., failing on any finding (an
// exemption that suppresses nothing included).
func TestTreeHasNoFindings(t *testing.T) {
	for _, pkg := range loadTree(t) {
		for _, d := range analysis.Check(pkg) {
			t.Error(d)
		}
	}
}

// TestNoFuncWithoutCaller holds the tree to "nothing without a caller":
// every function and method declared in non-test code under internal/,
// and every function, type alias and constant of the root facade, is
// named by non-test code in internal/, cmd/, examples/, the facade or
// bench/ (outside its own declaration; a facade function's signature
// counts), or is a method some interface in the program or in
// stdInterfaces asks of its receiver type. What a test alone needs lives
// in a _test.go file; a feature nothing can reach is deleted. The scan is
// typed (types.Info.Uses), so a comment, a same-named method on another
// type or a test does not keep code alive.
func TestNoFuncWithoutCaller(t *testing.T) {
	decls := map[string]token.Position{}
	used := map[string]bool{}
	for _, pkg := range loadTreeAndBench(t) {
		for _, file := range pkg.Files {
			// Uses, attributed to the enclosing declaration (one function,
			// or one spec of a const/type group) so recursion and a
			// declaration's own body do not count as a use.
			for _, d := range file.Decls {
				var units []ast.Node
				if gd, ok := d.(*ast.GenDecl); ok {
					for _, s := range gd.Specs {
						units = append(units, s)
					}
				} else {
					units = append(units, d)
				}
				for _, u := range units {
					self := map[string]bool{}
					for _, id := range declaredNames(u) {
						if obj := pkg.TypesInfo.Defs[id]; obj != nil {
							self[objKey(obj)] = true
							if tracked(pkg.Path, obj) {
								decls[objKey(obj)] = pkg.Fset.Position(id.Pos())
							}
						}
					}
					ast.Inspect(u, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							switch obj := pkg.TypesInfo.Uses[id].(type) {
							case *types.Func, *types.TypeName, *types.Const:
								if k := objKey(obj); !self[k] {
									used[k] = true
								}
							}
						}
						return true
					})
				}
			}
		}
		markInterfaceMethods(t, pkg, used)
	}

	var dead []string
	for k, pos := range decls {
		if !used[k] && uncalled[k] == "" {
			dead = append(dead, pos.String()+": "+k)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test user: delete it, move it to a _test.go file, or give it one", d)
	}
	for k := range uncalled {
		if _, ok := decls[k]; !ok {
			t.Errorf("allowlist entry %s names no declared function", k)
		} else if used[k] {
			t.Errorf("allowlist entry %s now has a caller: drop the entry", k)
		}
	}
	if len(uncalled) > 5 {
		t.Errorf("allowlist has %d entries; the bar is 5", len(uncalled))
	}
}

// unread is the whole allowlist of TestNoFieldWithoutReader: unexported
// struct fields under internal/ that the model writes and nothing reads.
var unread = map[string]string{
	"holdcsim/internal/server.Core.completed": "the tests' only view of which core served a task (the Table I alloc gate's warm-up check, the fast-core test); one increment per task",
	"holdcsim/internal/network.linkState.id":  "a link's index in Network.links: what the tests' reference water-filler keys its resources by and SetLinkAdmin takes",
}

// TestNoFieldWithoutReader extends "nothing without a caller" from
// functions to state: every unexported field of a struct type declared
// in non-test code under internal/ is read by some non-test code. An
// assignment to the field (or to an element of it), `++`, `op=`, a
// composite-literal key and the field's own appearance on the right of
// an assignment to itself (`x.f = append(x.f, v)`) are writes, not
// reads; anything else — a method call on it, an argument, an operand,
// its address — is a read, and a struct used as a map key has all its
// fields read by the map. A field that is only written costs its writes
// and tells nobody anything: delete it, or keep what a test needs to
// observe in a _test.go file. The write half, unwrittenFields, asks the
// converse of every field.
func TestNoFieldWithoutReader(t *testing.T) {
	type decl struct {
		pos  token.Position
		name string
	}
	fields := map[*types.Var]decl{}
	read := map[*types.Var]bool{}
	for _, pkg := range loadTree(t) {
		if !strings.HasPrefix(pkg.Path, "holdcsim/internal/") {
			continue
		}
		info := pkg.TypesInfo
		fieldOf := func(id *ast.Ident) *types.Var {
			if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
			return nil
		}
		// written resolves an assignment target to the field it stores
		// into: x.f, x.f[i], (x.f)[i][j].
		written := func(e ast.Expr) *ast.Ident {
			for {
				switch x := ast.Unparen(e).(type) {
				case *ast.IndexExpr:
					e = x.X
				case *ast.SelectorExpr:
					return x.Sel
				default:
					return nil
				}
			}
		}
		for _, tv := range info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				if st, ok := m.Key().Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						read[st.Field(i).Origin()] = true
					}
				}
			}
		}
		writes := map[*ast.Ident]bool{}
		store := func(lhs, rhs ast.Expr) {
			id := written(lhs)
			if id == nil {
				return
			}
			field := fieldOf(id)
			if field == nil {
				return
			}
			writes[id] = true
			if rhs != nil {
				ast.Inspect(rhs, func(n ast.Node) bool {
					if r, ok := n.(*ast.Ident); ok && fieldOf(r) == field {
						writes[r] = true
					}
					return true
				})
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					ast.Inspect(n.Type, func(m ast.Node) bool {
						if st, ok := m.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								for _, id := range f.Names {
									if v, ok := info.Defs[id].(*types.Var); ok && !id.IsExported() && id.Name != "_" {
										fields[v] = decl{pkg.Fset.Position(id.Pos()), pkg.Path + "." + n.Name.Name + "." + id.Name}
									}
								}
							}
						}
						return true
					})
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						var rhs ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							rhs = n.Rhs[i]
						}
						store(lhs, rhs)
					}
				case *ast.IncDecStmt:
					store(n.X, nil)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok && fieldOf(id) != nil {
						writes[id] = true
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !writes[id] {
					if v := fieldOf(id); v != nil {
						read[v] = true
					}
				}
				return true
			})
		}
	}

	var dead []string
	declared := map[string]bool{}
	for v, d := range fields {
		declared[d.name] = true
		if !read[v] && unread[d.name] == "" {
			dead = append(dead, d.pos.String()+": "+d.name)
		} else if read[v] && unread[d.name] != "" {
			t.Errorf("allowlist entry %s now has a reader: drop the entry", d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is written and never read by non-test code: delete it", d)
	}
	for k := range unread {
		if !declared[k] {
			t.Errorf("allowlist entry %s names no declared field", k)
		}
	}
	if len(unread) > 3 {
		t.Errorf("allowlist has %d entries; the bar is 3", len(unread))
	}

	for _, d := range unwrittenFields(loadTreeAndBench(t)) {
		t.Errorf("%s is never written by non-test code, so it is a constant: delete it or make it one", d)
	}
}

// unwrittenFields is the write half of TestNoFieldWithoutReader: every
// field of a struct type declared in non-test code under internal/ must
// be written by non-test code in pkgs. A write is an assignment, `++` or
// `op=` to the field or to a path through it (`x.f.g = v` and
// `x.f[i] = v` write f), its address (`&x.f`), a keyed or positional
// composite-literal element, or a pointer-receiver method called on it
// (`x.mu.Lock()`). An embedded field is written when a promoted field is
// written, or a pointer method called, through it. A field with a struct
// tag, or an exported field of an unexported type, is exempt: those are
// what encoding/json writes by reflection.
func unwrittenFields(pkgs []*analysis.Package) []string {
	type decl struct {
		pos    token.Position
		exempt bool
	}
	decls := map[string]decl{}
	written := map[string]bool{}
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		keys := fieldKeys(pkg)
		mark := func(f *types.Var) { written[keys[f.Origin()]] = true }
		// markPath marks the fields a selection passes through: the
		// embedded ones, and the selected field itself.
		markPath := func(sel *types.Selection) {
			t := sel.Recv()
			for i, idx := range sel.Index() {
				if sel.Kind() != types.FieldVal && i == len(sel.Index())-1 {
					return
				}
				st, ok := deref(t).Underlying().(*types.Struct)
				if !ok {
					return
				}
				mark(st.Field(idx))
				t = st.Field(idx).Type()
			}
		}
		store := func(e ast.Expr) {
			for {
				switch x := ast.Unparen(e).(type) {
				case *ast.SelectorExpr:
					if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						markPath(sel)
					}
					e = x.X
				case *ast.IndexExpr:
					e = x.X
				case *ast.StarExpr:
					e = x.X
				default:
					return
				}
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					tn, ok := info.Defs[n.Name].(*types.TypeName)
					if !ok || !strings.HasPrefix(pkg.Path, "holdcsim/internal/") {
						break
					}
					walkFields(pkg.Path+"."+tn.Name(), tn.Type().Underlying(), func(key string, st *types.Struct, i int) {
						f := st.Field(i)
						decls[key] = decl{pkg.Fset.Position(f.Pos()),
							st.Tag(i) != "" || f.Exported() && !tn.Exported()}
					})
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						store(lhs)
					}
				case *ast.IncDecStmt:
					store(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						store(n.X)
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil || sel.Kind() == types.FieldVal {
						break
					}
					if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						markPath(sel)
						if _, isPtr := info.TypeOf(n.X).Underlying().(*types.Pointer); !isPtr {
							store(n.X)
						}
					}
				case *ast.CompositeLit:
					st, ok := deref(info.TypeOf(n)).Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if f, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
								mark(f)
							}
						} else {
							mark(st.Field(i))
						}
					}
				}
				return true
			})
		}
	}
	var dead []string
	for k, d := range decls {
		if !d.exempt && !written[k] {
			dead = append(dead, d.pos.String()+": "+k)
		}
	}
	sort.Strings(dead)
	return dead
}

// fieldKeys names every struct field visible from pkg — declared in it,
// including function-local types, or in a package it imports — the same
// way in every typechecker universe: package path, type name, field name,
// one more segment per nested anonymous struct.
func fieldKeys(pkg *analysis.Package) map[*types.Var]string {
	keys := map[*types.Var]string{}
	add := func(tn *types.TypeName) {
		if !tn.IsAlias() {
			walkFields(tn.Pkg().Path()+"."+tn.Name(), tn.Type().Underlying(), func(key string, st *types.Struct, i int) {
				keys[st.Field(i)] = key
			})
		}
	}
	for _, p := range visiblePackages(pkg) {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn)
			}
		}
	}
	for _, obj := range pkg.TypesInfo.Defs {
		if tn, ok := obj.(*types.TypeName); ok && tn.Parent() != tn.Pkg().Scope() {
			add(tn)
		}
	}
	return keys
}

// walkFields calls fn with the key of every field of t, a struct type
// named by prefix, descending into anonymous struct-typed fields.
func walkFields(prefix string, t types.Type, fn func(key string, st *types.Struct, i int)) {
	st, ok := t.(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		key := prefix + "." + st.Field(i).Name()
		fn(key, st, i)
		ft := st.Field(i).Type()
		for {
			switch u := ft.(type) {
			case *types.Pointer:
				ft = u.Elem()
				continue
			case *types.Slice:
				ft = u.Elem()
				continue
			case *types.Array:
				ft = u.Elem()
				continue
			case *types.Map:
				ft = u.Elem()
				continue
			}
			break
		}
		walkFields(key, ft, fn)
	}
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// visiblePackages is pkg and every package it imports, transitively.
func visiblePackages(pkg *analysis.Package) []*types.Package {
	pkgs := []*types.Package{pkg.Types}
	seen := map[*types.Package]bool{pkg.Types: true}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				pkgs = append(pkgs, imp)
				walk(imp)
			}
		}
	}
	walk(pkg.Types)
	return pkgs
}

// markInterfaceMethods marks, for every interface visible from pkg (its
// own, those of the packages it imports, and stdInterfaces) and every
// named type visible from pkg, the methods the interface asks for when
// the type (or its pointer) implements it. Both sides come from pkg's
// own typechecker universe, so types.Implements compares like with like.
func markInterfaceMethods(t *testing.T, pkg *analysis.Package, used map[string]bool) {
	var scopes []*types.Scope
	for _, p := range visiblePackages(pkg) {
		scopes = append(scopes, p.Scope())
	}
	for _, path := range stdInterfaces {
		std, err := stdImporter.Import(path)
		if err != nil {
			t.Fatalf("importing %s: %v", path, err)
		}
		scopes = append(scopes, std.Scope())
	}

	var ifaces []*types.Interface
	var named []*types.Named
	addType := func(typ types.Type) {
		switch u := typ.Underlying().(type) {
		case *types.Interface:
			if u.NumMethods() > 0 {
				ifaces = append(ifaces, u)
			}
		default:
			if n, ok := typ.(*types.Named); ok && n.Obj().Pkg() != nil &&
				strings.HasPrefix(n.Obj().Pkg().Path(), "holdcsim/internal/") {
				named = append(named, n)
			}
		}
	}
	for _, s := range scopes {
		for _, name := range s.Names() {
			if tn, ok := s.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				addType(tn.Type())
			}
		}
	}
	// Anonymous interfaces (type-assertion targets, parameter types) and
	// function-local named types appear only as expression types.
	for _, tv := range pkg.TypesInfo.Types {
		if tv.IsType() {
			if _, isNamed := tv.Type.(*types.Named); !isNamed {
				addType(tv.Type)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))

	for _, n := range named {
		if n.TypeParams().Len() > 0 {
			continue
		}
		for _, iface := range ifaces {
			// Method sets only: a constraint interface's type-set terms say
			// which types may instantiate, not which methods get called.
			if m, _ := types.MissingMethod(types.NewPointer(n), iface, true); m != nil {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(n, true, iface.Method(i).Pkg(), iface.Method(i).Name())
				if fn, ok := obj.(*types.Func); ok {
					used[funcKey(fn)] = true
				}
			}
		}
	}
}

var stdImporter = importer.Default()
