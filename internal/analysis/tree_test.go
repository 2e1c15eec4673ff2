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

// The three tests below hold the whole tree, not a fixture, to a property
// on every `go test ./...`: they load every non-test package of the
// module once, from the module root.
var tree struct {
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
// every function and method declared in non-test code under internal/
// is referenced by non-test code in internal/, cmd/, examples/, the root
// facade or bench/ (outside its own body), or is a method some interface
// in the program or in stdInterfaces asks of its receiver type. What a
// test alone needs lives in a _test.go file; a feature nothing can reach
// is deleted. The scan is typed (types.Info.Uses), so a comment, a
// same-named method on another type or a test does not keep code alive.
func TestNoFuncWithoutCaller(t *testing.T) {
	// The frozen bench/ module counts as a caller because it cannot change.
	bench, err := analysis.Load("../../bench", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := slices.Concat(loadTree(t), bench)

	type decl struct {
		pos  token.Position
		body *ast.FuncDecl
	}
	decls := map[string]decl{}
	used := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			// Uses, attributed to the enclosing declaration so recursion
			// does not count as a caller.
			for _, d := range file.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						self = funcKey(fn)
						if strings.HasPrefix(pkg.Path, "holdcsim/internal/") &&
							fn.Name() != "init" && fn.Name() != "_" && !takesTesting(fn) {
							decls[self] = decl{pkg.Fset.Position(fd.Pos()), fd}
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok {
						if k := funcKey(fn); k != self {
							used[k] = true
						}
					}
					return true
				})
			}
		}
		markInterfaceMethods(t, pkg, used)
	}

	var dead []string
	for k, d := range decls {
		if !used[k] && uncalled[k] == "" {
			dead = append(dead, d.pos.String()+": "+k)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no non-test caller: delete it, move it to a _test.go file, or give it one", d)
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
// observe in a _test.go file.
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
}

// markInterfaceMethods marks, for every interface visible from pkg (its
// own, those of the packages it imports, and stdInterfaces) and every
// named type visible from pkg, the methods the interface asks for when
// the type (or its pointer) implements it. Both sides come from pkg's
// own typechecker universe, so types.Implements compares like with like.
func markInterfaceMethods(t *testing.T, pkg *analysis.Package, used map[string]bool) {
	scopes := []*types.Scope{pkg.Types.Scope()}
	seen := map[*types.Package]bool{pkg.Types: true}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if !seen[imp] {
				seen[imp] = true
				scopes = append(scopes, imp.Scope())
				walk(imp)
			}
		}
	}
	walk(pkg.Types)
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
