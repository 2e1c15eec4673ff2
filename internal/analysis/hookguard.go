package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HookguardAnalyzer enforces the nil-guarded-hook contract. Observation
// hooks are optional by design — core.Config.Cover, the server's
// onBusyChange, invariant/sched subscriber fields — and a run without them must not
// panic. Two rules:
//
//   - Rule A: a call through an *optional* func-typed struct field
//     (s.onBusyChange(…), s.hooks.f(…)) must be dominated by a nil check
//     of that same field — an enclosing `if x.F != nil` (or a guarding
//     early return `if x.F == nil { return }`). A field is optional when
//     non-test code of the package compares it with nil anywhere; one
//     nothing ever compares (runner.Run.Do, Timer.fn) is a mandatory
//     input, and a nil there is a bug its first call finds. Calls through
//     func-typed locals are exempt: copying the field to a local before
//     the check is the callee's own idiom and the copy is what got
//     checked.
//
//   - Rule B: exported pointer-receiver methods on hook-carrying types
//     (modelcov.Map) that dereference the receiver must open with a
//     nil-receiver guard (`if m == nil … return`), so a disabled hook —
//     a nil *Map — is callable without the caller re-checking.
var HookguardAnalyzer = &Analyzer{
	Name: "hookguard",
	Doc: "calls through optional hook fields must be nil-checked; " +
		"nil-tolerant hook types must guard their receivers",
	Run: runHookguard,
}

// nilSafeReceiverTypes names the first-party types whose methods promise
// nil-receiver tolerance (rule B). Path suffix → type name.
var nilSafeReceiverTypes = map[string]string{
	"internal/modelcov": "Map",
}

func runHookguard(p *Pass) {
	if !isFirstParty(p.Pkg.Path()) {
		return
	}
	optional := optionalHookFields(p)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkHookCalls(p, fd, optional)
			checkNilSafeReceiver(p, fd)
		}
	}
}

// optionalHookFields collects the func-typed fields the package's code
// (non-test: all the loader hands a pass) compares with nil: the hooks a
// run may leave unset.
func optionalHookFields(p *Pass) map[*types.Var]bool {
	optional := map[*types.Var]bool{}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
				return true
			}
			x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
			if isNilIdent(x) {
				x, y = y, x
			}
			if sel, ok := x.(*ast.SelectorExpr); ok && isNilIdent(y) {
				if field := hookField(p, sel); field != nil {
					optional[field] = true
				}
			}
			return true
		})
	}
	return optional
}

// hookField resolves sel to the func-typed struct field it names, or nil.
func hookField(p *Pass, sel *ast.SelectorExpr) *types.Var {
	obj, ok := p.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return nil
	}
	if _, ok := obj.Type().Underlying().(*types.Signature); !ok {
		return nil
	}
	return obj.Origin()
}

// checkHookCalls implements rule A inside one function.
func checkHookCalls(p *Pass, fd *ast.FuncDecl, optional map[*types.Var]bool) {
	// guards maps the canonical text of a checked expression ("cfg.Cover")
	// to the extent within which the check dominates. Built in a first
	// pass over if statements, consulted in a second over calls.
	type guard struct {
		pos, end token.Pos
	}
	guards := map[string][]guard{}

	addGuard := func(expr string, pos, end token.Pos) {
		guards[expr] = append(guards[expr], guard{pos, end})
	}

	// collect nil-check guards from if statements.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		for _, expr := range nilCheckedExprs(ifs.Cond, token.NEQ) {
			// `if x.F != nil { … }`: dominates the then-block.
			addGuard(expr, ifs.Body.Pos(), ifs.Body.End())
		}
		eqlExprs := nilCheckedExprs(ifs.Cond, token.EQL)
		if ifs.Else != nil {
			// `if x.F == nil || … { … } else { … }`: the field is non-nil
			// throughout the else branch.
			for _, expr := range eqlExprs {
				addGuard(expr, ifs.Else.Pos(), ifs.Else.End())
			}
		}
		if terminates(ifs.Body) {
			for _, expr := range eqlExprs {
				// `if x.F == nil { return }`: dominates everything after in
				// the enclosing function (conservatively: to body end).
				addGuard(expr, ifs.End(), fd.Body.End())
			}
		}
		return true
	})

	dominated := func(expr string, pos token.Pos) bool {
		for _, g := range guards[expr] {
			if g.pos <= pos && pos < g.end {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Only calls through optional func-typed *fields* — method calls
		// resolve to *types.Func, field hooks to *types.Var.
		if field := hookField(p, sel); field == nil || !optional[field] {
			return true
		}
		expr := types.ExprString(sel)
		if dominated(expr, call.Pos()) {
			return true
		}
		p.Reportf(call.Pos(),
			"call through optional hook field %s is not dominated by a nil check: guard with `if %s != nil`",
			expr, expr)
		return true
	})
}

// nilCheckedExprs extracts from a condition the canonical texts of
// selector expressions compared against nil with op, walking && chains.
// For op==NEQ, `a.F != nil && b.G != nil` yields both; for op==EQL,
// `a.F == nil || b.G == nil` yields both (each branch of the || forces
// the early return).
func nilCheckedExprs(cond ast.Expr, op token.Token) []string {
	var out []string
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		join := token.LAND
		if op == token.EQL {
			join = token.LOR
		}
		if b.Op == join {
			walk(b.X)
			walk(b.Y)
			return
		}
		if b.Op != op {
			return
		}
		x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
		if isNilIdent(y) {
			if sel, ok := x.(*ast.SelectorExpr); ok {
				out = append(out, types.ExprString(sel))
			}
		} else if isNilIdent(x) {
			if sel, ok := y.(*ast.SelectorExpr); ok {
				out = append(out, types.ExprString(sel))
			}
		}
	}
	walk(cond)
	return out
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// terminates reports whether a block always transfers control out:
// return, panic, or continue/break as its last statement.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id := calleeIdent(call); id != nil && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// checkNilSafeReceiver implements rule B: exported pointer-receiver
// methods on nil-tolerant hook types must open with a nil-receiver
// guard if they use the receiver at all.
func checkNilSafeReceiver(p *Pass, fd *ast.FuncDecl) {
	want, ok := nilSafeReceiverTypes[packageSuffix(p.Pkg.Path())]
	if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() {
		return
	}
	recv := fd.Recv.List[0]
	star, ok := recv.Type.(*ast.StarExpr)
	if !ok {
		return
	}
	base, ok := star.X.(*ast.Ident)
	if !ok || base.Name != want {
		return
	}
	if len(recv.Names) == 0 || recv.Names[0].Name == "_" {
		return // receiver unused by construction
	}
	recvObj := p.TypesInfo.Defs[recv.Names[0]]
	if recvObj == nil || !derefsObject(p, fd.Body, recvObj) {
		// Never dereferenced — or used only as the receiver of further
		// method calls on the same nil-tolerant type, each of which
		// enforces its own guard. Either way nil-safe.
		return
	}
	if opensWithNilGuard(p, fd.Body, recvObj) {
		return
	}
	p.Reportf(fd.Pos(),
		"exported method (*%s).%s uses its receiver without a leading nil guard: a disabled hook is a nil *%s, open with `if %s == nil { return … }`",
		want, fd.Name.Name, want, recv.Names[0].Name)
}

// derefsObject reports whether body uses obj other than as the sole
// receiver of a method call (m.Count(…) delegates nil-handling to Count;
// m.counts[i] dereferences).
func derefsObject(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	// Idents appearing as the X of a method-call selector are delegation.
	delegated := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if _, isMethod := p.TypesInfo.Uses[sel.Sel].(*types.Func); !isMethod {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			delegated[id] = true
		}
		return true
	})
	derefs := false
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.TypesInfo.Uses[id] == obj && !delegated[id] {
			derefs = true
		}
		return !derefs
	})
	return derefs
}

// opensWithNilGuard reports whether the body's first statement is an if
// whose condition nil-tests obj (possibly || more) and whose then-block
// terminates.
func opensWithNilGuard(p *Pass, body *ast.BlockStmt, obj types.Object) bool {
	if len(body.List) == 0 {
		return false
	}
	ifs, ok := body.List[0].(*ast.IfStmt)
	if !ok || !terminates(ifs.Body) {
		return false
	}
	found := false
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		b, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		if b.Op == token.LOR || b.Op == token.LAND {
			walk(b.X)
			walk(b.Y)
			return
		}
		if b.Op != token.EQL {
			return
		}
		x, y := ast.Unparen(b.X), ast.Unparen(b.Y)
		for _, pair := range [][2]ast.Expr{{x, y}, {y, x}} {
			if id, ok := pair[0].(*ast.Ident); ok && isNilIdent(pair[1]) {
				if p.TypesInfo.Uses[id] == obj {
					found = true
				}
			}
		}
	}
	walk(ifs.Cond)
	return found
}

// packageSuffix returns the module-relative path tail used to key
// per-package rule tables ("holdcsim/internal/modelcov" →
// "internal/modelcov").
func packageSuffix(path string) string {
	return strings.TrimPrefix(path, modulePrefix)
}
