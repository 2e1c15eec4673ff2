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
// declared in package path: every package-level name — function, type,
// constant or variable — under internal/ and of the root facade.
func tracked(path string, obj types.Object) bool {
	if !strings.HasPrefix(path, "holdcsim/internal/") && path != "holdcsim" || obj.Name() == "_" {
		return false
	}
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Name() != "init" && !takesTesting(obj)
	case *types.TypeName, *types.Const:
		return true
	case *types.Var:
		return packageLevel(obj)
	}
	return false
}

// packageLevel reports whether v is a package-level variable, not a
// local, a parameter or a field.
func packageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
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
// test: the determinism check over ./..., failing on any finding.
func TestTreeHasNoFindings(t *testing.T) {
	for _, pkg := range loadTree(t) {
		for _, d := range analysis.Check(pkg) {
			t.Errorf("%s: %s", d.Pos, d.Message)
		}
	}
}

// TestNoFuncWithoutCaller holds the tree to "nothing without a caller":
// every package-level name declared in non-test code under internal/ or
// in the root facade — function, method, type, constant, variable — is
// named by non-test code in internal/, cmd/, examples/, the facade or
// bench/ (outside its own declaration; a facade function's signature
// counts), or is a method some interface in the program or in
// stdInterfaces asks of its receiver type. String is the exception: it
// names a value, so it needs a value of its type formatted
// (markFormatted). What a test alone needs lives in a _test.go file; a
// feature nothing can reach is deleted. The scan is typed
// (types.Info.Uses), so a comment, a same-named method on another type or
// a test does not keep code alive.
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
							if tracked(pkg.Types.Path(), obj) {
								decls[objKey(obj)] = pkg.Fset.Position(id.Pos())
							}
						}
					}
					ast.Inspect(u, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							obj := pkg.TypesInfo.Uses[id]
							if v, ok := obj.(*types.Var); ok && !packageLevel(v) {
								return true
							}
							switch obj.(type) {
							case *types.Func, *types.TypeName, *types.Const, *types.Var:
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
		markFormatted(pkg, used)
	}

	var dead []string
	for k, pos := range decls {
		if !used[k] {
			dead = append(dead, pos.String()+": "+k)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test user: delete it, move it to a _test.go file, or give it one", d)
	}
}

// unread is the whole allowlist of the read half of
// TestNoFieldWithoutReader: struct fields under internal/ that the model
// writes and no non-test code reads.
var unread = map[string]string{
	"holdcsim/internal/network.linkState.id":      "a link's index in Network.links: what the tests' reference water-filler keys its resources by and SetLinkAdmin takes",
	"holdcsim/internal/experiments.Report.Pinned": "the golden suite's view of an experiment: the deterministic rendering testdata/golden pins, which cmd/experiments does not print",
}

// TestNoFieldWithoutReader extends "nothing without a caller" from
// functions to state: every field, exported or not, of a struct type
// declared in non-test code under internal/ is read and written by
// non-test code in the tree or bench/ (scanFields says what counts as
// either). A field only written costs its writes and tells nobody
// anything: delete it, keep what a test observes in a _test.go file, or
// give it its reader. A field only a test sets is a constant.
func TestNoFieldWithoutReader(t *testing.T) {
	decls, read, written := scanFields(loadTreeAndBench(t))
	var dead []string
	for k, d := range decls {
		if d.exempt {
			continue
		}
		if !read[k] && unread[k] == "" {
			dead = append(dead, d.pos.String()+": "+k+" is never read by non-test code: delete it, move it to a _test.go file, or give it a reader")
		} else if read[k] && unread[k] != "" {
			t.Errorf("allowlist entry %s now has a reader: drop the entry", k)
		}
		if !written[k] {
			dead = append(dead, d.pos.String()+": "+k+" is never written by non-test code, so it is a constant: delete it or make it one")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Error(d)
	}
	for k := range unread {
		if _, ok := decls[k]; !ok {
			t.Errorf("allowlist entry %s names no declared field", k)
		}
	}
	if len(unread) > 4 {
		t.Errorf("allowlist has %d entries; the bar is 4", len(unread))
	}
}

type fieldDecl struct {
	pos    token.Position
	exempt bool
}

// scanFields declares every field of a struct type declared in non-test
// code under internal/, keyed by fieldKeys, and reports which of them the
// non-test code in pkgs reads and writes. A field with a struct tag, or an
// exported field of an unexported type, is exempt: those are what
// encoding/json reads and writes by reflection.
//
// A write is an assignment, `++` or `op=` to the field or to a path
// through it (`x.f.g = v` and `x.f[i] = v` write f), its address (`&x.f`),
// a keyed or positional composite-literal element, or a pointer-receiver
// method called on it (`x.mu.Lock()`); an embedded field is written when
// a promoted field is written, or a pointer method called, through it.
//
// A read is any selection of the field but a store: the target of an
// assignment, `++` or `op=` (`x.f[i] = v` stores into f, `x.f.g = v`
// reads f), and the field's own appearance on the right of an assignment
// to itself (`x.f = append(x.f, v)`). A selection through an embedded
// field reads it, and a struct used as a map key or compared with `==` or
// `!=` has all its fields read.
func scanFields(pkgs []*analysis.Package) (decls map[string]fieldDecl, read, written map[string]bool) {
	decls = map[string]fieldDecl{}
	read, written = map[string]bool{}, map[string]bool{}
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		keys := fieldKeys(pkg)
		key := func(f *types.Var) string { return keys[f.Origin()] }
		// readAll reads every field of a struct compared as a whole.
		var readAll func(t types.Type)
		readAll = func(t types.Type) {
			switch u := t.Underlying().(type) {
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					read[key(u.Field(i))] = true
					readAll(u.Field(i).Type())
				}
			case *types.Array:
				readAll(u.Elem())
			}
		}
		for _, tv := range info.Types {
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				readAll(m.Key())
			}
		}
		// walkPath calls fn with the fields a selection passes through:
		// the embedded ones, and the selected field itself.
		walkPath := func(sel *types.Selection, fn func(f *types.Var, embedded bool)) {
			t := sel.Recv()
			for i, idx := range sel.Index() {
				last := i == len(sel.Index())-1
				if sel.Kind() != types.FieldVal && last {
					return
				}
				st, ok := deref(t).Underlying().(*types.Struct)
				if !ok {
					return
				}
				fn(st.Field(idx), !last)
				t = st.Field(idx).Type()
			}
		}
		mark := func(f *types.Var, _ bool) { written[key(f)] = true }
		writePath := func(e ast.Expr) {
			for {
				switch x := ast.Unparen(e).(type) {
				case *ast.SelectorExpr:
					if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
						walkPath(sel, mark)
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
		// stores are the selections that store into their field and read
		// nothing of it: an assignment target (x.f, x.f[i]) and, on the
		// assignment's right, the target field itself.
		stores := map[*ast.SelectorExpr]bool{}
		store := func(lhs, rhs ast.Expr) {
			lhs = ast.Unparen(lhs)
			for ix, ok := lhs.(*ast.IndexExpr); ok; ix, ok = lhs.(*ast.IndexExpr) {
				lhs = ast.Unparen(ix.X)
			}
			x, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				return
			}
			stores[x] = true
			if f := info.Uses[x.Sel]; f != nil && rhs != nil {
				ast.Inspect(rhs, func(n ast.Node) bool {
					if r, ok := n.(*ast.SelectorExpr); ok && info.Uses[r.Sel] == f {
						stores[r] = true
					}
					return true
				})
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					tn, ok := info.Defs[n.Name].(*types.TypeName)
					if !ok || !strings.HasPrefix(pkg.Types.Path(), "holdcsim/internal/") {
						break
					}
					walkFields(pkg.Types.Path()+"."+tn.Name(), tn.Type().Underlying(), func(key string, st *types.Struct, i int) {
						f := st.Field(i)
						decls[key] = fieldDecl{pkg.Fset.Position(f.Pos()),
							st.Tag(i) != "" || f.Exported() && !tn.Exported()}
					})
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						writePath(lhs)
						var rhs ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							rhs = n.Rhs[i]
						}
						store(lhs, rhs)
					}
				case *ast.IncDecStmt:
					writePath(n.X)
					store(n.X, nil)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						writePath(n.X)
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(info.TypeOf(n.X))
					}
				case *ast.SelectorExpr:
					sel := info.Selections[n]
					if sel == nil || sel.Kind() == types.FieldVal {
						break
					}
					if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						walkPath(sel, mark)
						if _, isPtr := info.TypeOf(n.X).Underlying().(*types.Pointer); !isPtr {
							writePath(n.X)
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
								mark(f, false)
							}
						} else {
							mark(st.Field(i), false)
						}
					}
				}
				return true
			})
			ast.Inspect(file, func(n ast.Node) bool {
				if x, ok := n.(*ast.SelectorExpr); ok {
					if sel := info.Selections[x]; sel != nil {
						walkPath(sel, func(f *types.Var, embedded bool) {
							if embedded || !stores[x] {
								read[key(f)] = true
							}
						})
					}
				}
				return true
			})
		}
	}
	return decls, read, written
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
				if iface.Method(i).Name() == "String" {
					continue // a name: markFormatted decides
				}
				obj, _, _ := types.LookupFieldOrMethod(n, true, iface.Method(i).Pkg(), iface.Method(i).Name())
				if fn, ok := obj.(*types.Func); ok {
					used[funcKey(fn)] = true
				}
			}
		}
	}
}

var stdImporter = importer.Default()

// markFormatted marks the String method of every type whose values
// non-test code in pkg converts to an interface — a fmt argument, an
// error or `any` returned, stored or passed — and of every type such a
// value holds in an element or an exported field, since fmt prints those
// with their own String methods. A String method is a name: implementing
// fmt.Stringer does not keep it alive, something must format the value.
func markFormatted(pkg *analysis.Package, used map[string]bool) {
	info := pkg.TypesInfo
	seen := map[types.Type]bool{}
	var mark func(t types.Type)
	mark = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "String")
		if fn, ok := obj.(*types.Func); ok {
			used[funcKey(fn)] = true
		}
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			mark(u.Elem())
		case *types.Slice:
			mark(u.Elem())
		case *types.Array:
			mark(u.Elem())
		case *types.Map:
			mark(u.Key())
			mark(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if u.Field(i).Exported() { // fmt cannot call methods through unexported fields
					mark(u.Field(i).Type())
				}
			}
		}
	}
	into := func(dst types.Type, e ast.Expr) {
		if dst != nil && types.IsInterface(dst) {
			mark(info.TypeOf(e))
		}
	}
	for _, file := range pkg.Files {
		var stack []ast.Node
		var sigs []*types.Signature // enclosing functions, innermost last
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				switch stack[len(stack)-1].(type) {
				case *ast.FuncDecl, *ast.FuncLit:
					sigs = sigs[:len(sigs)-1]
				}
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.FuncDecl:
				sigs = append(sigs, info.Defs[n.Name].Type().(*types.Signature))
			case *ast.FuncLit:
				sigs = append(sigs, info.TypeOf(n).(*types.Signature))
			case *ast.CallExpr:
				if tv := info.Types[n.Fun]; tv.IsType() {
					if len(n.Args) == 1 {
						into(tv.Type, n.Args[0])
					}
					break
				}
				sig, ok := info.TypeOf(n.Fun).Underlying().(*types.Signature)
				if !ok || calleePkg(info, n.Fun) == "sort" { // sort.Slice takes `any` to swap it
					break
				}
				params := sig.Params()
				for i, arg := range n.Args {
					if params.Len() == 0 {
						break
					}
					var pt types.Type
					switch {
					case sig.Variadic() && i >= params.Len()-1 && !n.Ellipsis.IsValid():
						pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
					case i < params.Len():
						pt = params.At(i).Type()
					}
					into(pt, arg)
				}
			case *ast.AssignStmt:
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						into(info.TypeOf(lhs), n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						into(info.TypeOf(n.Type), v)
					}
				}
			case *ast.ReturnStmt:
				if len(sigs) > 0 {
					if res := sigs[len(sigs)-1].Results(); res.Len() == len(n.Results) {
						for i, r := range n.Results {
							into(res.At(i).Type(), r)
						}
					}
				}
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					into(ch.Elem(), n.Value)
				}
			case *ast.CompositeLit:
				t := deref(info.TypeOf(n)).Underlying()
				for i, e := range n.Elts {
					var key ast.Expr
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						key, e = kv.Key, kv.Value
					}
					switch u := t.(type) {
					case *types.Slice:
						into(u.Elem(), e)
					case *types.Array:
						into(u.Elem(), e)
					case *types.Map:
						into(u.Key(), key)
						into(u.Elem(), e)
					case *types.Struct:
						if key == nil {
							into(u.Field(i).Type(), e)
						} else if f, ok := info.Uses[key.(*ast.Ident)].(*types.Var); ok {
							into(f.Type(), e)
						}
					}
				}
			}
			return true
		})
	}
}

// calleePkg is the package path of the function fun names, or "".
func calleePkg(info *types.Info, fun ast.Expr) string {
	if sel, ok := ast.Unparen(fun).(*ast.SelectorExpr); ok {
		fun = sel.Sel
	}
	if id, ok := fun.(*ast.Ident); ok {
		if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
			return fn.Pkg().Path()
		}
	}
	return ""
}
