package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Check enforces the byte-identical-replay contract (DESIGN.md Sec. 3)
// on pkg if it is a model package: between Build and Collect, the only
// admissible inputs are the seed and the scenario. It flags
//
//   - wall-clock reads: time.Now, time.Since, time.Until;
//   - the global math/rand and math/rand/v2 streams (top-level package
//     functions — explicit *rand.Rand/rng.Source constructors are fine);
//   - environment-derived behavior: os.Getenv, os.LookupEnv, os.Environ;
//   - `range` over a map whose body has observable, order-dependent
//     effects. Bodies made of provably order-insensitive statements —
//     commutative accumulation (x += e, x++, x |= e, …), writes to
//     another map keyed by the loop key, delete by loop key, max/min
//     updates — pass. The collect-keys-then-sort idiom passes when the
//     same function body later sorts the collected slice.
//
// The banned functions are flagged at every use, so `f := time.Now`
// counts as a read. Findings inside the exempt function are dropped; an
// exemption that drops nothing is itself a finding, so it cannot outlive
// what it excuses.
func Check(pkg *Package) []Diagnostic {
	if !isModelPackage(pkg.Path) {
		return nil
	}
	c := &checker{pkg: pkg}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			c.exempt = nil
			if fd, ok := d.(*ast.FuncDecl); ok && pkg.Path == exemptPkg && fd.Recv == nil && fd.Name.Name == exemptFunc {
				c.exempt = fd
			}
			c.walk(d, nil)
		}
	}
	if pkg.Path == exemptPkg && c.exempted == 0 {
		c.report(pkg.Files[0].Name.Pos(), "determinism exemption %s.%s suppresses nothing: "+
			"the function is gone or reads no clock — update exemptFunc", exemptPkg, exemptFunc)
	}
	return c.diags
}

// exemptPkg.exemptFunc is the check's one named exemption: the function
// that reads the wall clock for report timing (runner.StartStopwatch).
// Every CLI banner and events/s row goes through it, so a clock read
// anywhere else is a finding.
const exemptPkg, exemptFunc = modulePrefix + "internal/runner", "StartStopwatch"

// checker is one Check run over one package.
type checker struct {
	pkg      *Package
	exempt   *ast.FuncDecl // the declaration being walked, if it is the exemption
	exempted int           // findings the exemption dropped
	diags    []Diagnostic
}

func (c *checker) report(pos token.Pos, format string, args ...interface{}) {
	if c.exempt != nil && c.exempt.Pos() <= pos && pos < c.exempt.End() {
		c.exempted++
		return
	}
	c.diags = append(c.diags, Diagnostic{Pos: c.pkg.Fset.Position(pos), Message: fmt.Sprintf(format, args...)})
}

// walk checks n, whose innermost enclosing function body is body (nil at
// package level). Function literals are walked as bodies of their own.
func (c *checker) walk(n ast.Node, body *ast.BlockStmt) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				c.walk(n.Body, n.Body)
			}
			return false
		case *ast.FuncLit:
			c.walk(n.Body, n.Body)
			return false
		case *ast.Ident:
			c.checkUse(n)
		case *ast.RangeStmt:
			c.checkMapRange(n, body)
		}
		return true
	})
}

// bannedFuncs maps package path → function name → short finding text.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock read",
		"Since": "wall-clock read",
		"Until": "wall-clock read",
	},
	"os": {
		"Getenv":    "environment-derived behavior",
		"LookupEnv": "environment-derived behavior",
		"Environ":   "environment-derived behavior",
	},
}

// randConstructors are the math/rand top-level functions that construct
// explicit generators rather than touching the global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// pkgFunc resolves id to the package-level function it names, or nil
// for methods, locals, builtins and everything that is not a function.
func (c *checker) pkgFunc(id *ast.Ident) *types.Func {
	fn, ok := c.pkg.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return nil
	}
	return fn
}

// checkUse flags a use of a banned function: a call, or a function value
// taken for calling later.
func (c *checker) checkUse(id *ast.Ident) {
	fn := c.pkgFunc(id)
	if fn == nil {
		return
	}
	pkgPath, name := fn.Pkg().Path(), fn.Name()
	if what, ok := bannedFuncs[pkgPath][name]; ok {
		c.report(id.Pos(), "%s.%s in model package: %s breaks byte-identical replay", pkgPath, name, what)
	} else if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !randConstructors[name] {
		c.report(id.Pos(), "global %s.%s in model package: draw from the run's seeded rng.Source instead", pkgPath, name)
	}
}

// checkMapRange flags order-dependent map iteration.
func (c *checker) checkMapRange(rs *ast.RangeStmt, body *ast.BlockStmt) {
	info := c.pkg.TypesInfo
	if _, ok := info.TypeOf(rs.X).Underlying().(*types.Map); !ok {
		return
	}
	ins := &insensitivity{info: info, locals: map[types.Object]bool{}}
	ins.addDef(rs.Key)
	ins.addDef(rs.Value)
	if id, ok := rs.Key.(*ast.Ident); ok {
		ins.keyObj = info.Defs[id]
	}
	if ins.blockOK(rs.Body, nil) || c.collectForSort(rs, body) {
		return
	}
	c.report(rs.Pos(),
		"map iteration with order-dependent effects (%s): iterate sorted keys or make the body commutative",
		ins.why)
}

// insensitivity decides whether a loop body's effects commute across
// iteration orders.
type insensitivity struct {
	info   *types.Info
	locals map[types.Object]bool // objects scoped to one iteration
	keyObj types.Object          // the range key variable, if named
	why    string                // first order-dependent construct found
}

func (c *insensitivity) fail(why string) bool {
	if c.why == "" {
		c.why = why
	}
	return false
}

func (c *insensitivity) blockOK(b *ast.BlockStmt, guard ast.Expr) bool {
	for _, s := range b.List {
		if !c.stmtOK(s, guard) {
			return false
		}
	}
	return true
}

// stmtOK reports whether one statement is order-insensitive. guard is
// the innermost enclosing if condition, consulted for the max/min
// update idiom.
func (c *insensitivity) stmtOK(s ast.Stmt, guard ast.Expr) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return c.assignOK(s, guard)
	case *ast.IncDecStmt:
		return true // x++ / x-- commute
	case *ast.ExprStmt:
		// delete(m, k) by the loop key commutes; nothing else may call.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if b, ok := c.info.Uses[calleeIdent(call)].(*types.Builtin); ok && b.Name() == "delete" {
				if len(call.Args) == 2 && c.isKey(call.Args[1]) {
					return true
				}
				return c.fail("delete not keyed by the loop variable")
			}
		}
		return c.fail("expression statement with effects")
	case *ast.IfStmt:
		if s.Init != nil && !c.stmtOK(s.Init, guard) {
			return false
		}
		if !c.pure(s.Cond) {
			return c.fail("impure if condition")
		}
		if !c.blockOK(s.Body, s.Cond) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return c.blockOK(e, nil)
		case *ast.IfStmt:
			return c.stmtOK(e, guard)
		}
		return c.fail("unsupported else form")
	case *ast.BlockStmt:
		return c.blockOK(s, guard)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return c.fail("non-var declaration")
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				return c.fail("non-value var spec")
			}
			for _, v := range vs.Values {
				if !c.pure(v) {
					return c.fail("impure var initializer")
				}
			}
			for _, name := range vs.Names {
				if obj := c.info.Defs[name]; obj != nil {
					c.locals[obj] = true
				}
			}
		}
		return true
	case *ast.BranchStmt:
		// A bare continue commutes; break/goto make the set of executed
		// iterations order-dependent.
		if s.Tok == token.CONTINUE && s.Label == nil {
			return true
		}
		return c.fail(s.Tok.String() + " exits the loop order-dependently")
	case *ast.RangeStmt:
		// A nested range over a map is checked on its own; for the outer
		// loop's insensitivity only the nested body's effects matter.
		if s.X != nil && !c.pure(s.X) {
			return c.fail("impure nested range expression")
		}
		c.addDef(s.Key)
		c.addDef(s.Value)
		return c.blockOK(s.Body, nil)
	case *ast.ForStmt:
		if s.Init != nil && !c.stmtOK(s.Init, nil) {
			return false
		}
		if s.Cond != nil && !c.pure(s.Cond) {
			return c.fail("impure nested for condition")
		}
		if s.Post != nil && !c.stmtOK(s.Post, nil) {
			return false
		}
		return c.blockOK(s.Body, nil)
	case *ast.SwitchStmt:
		if s.Init != nil && !c.stmtOK(s.Init, nil) {
			return false
		}
		if s.Tag != nil && !c.pure(s.Tag) {
			return c.fail("impure switch tag")
		}
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				if !c.pure(e) {
					return c.fail("impure case expression")
				}
			}
			for _, st := range clause.Body {
				if !c.stmtOK(st, nil) {
					return false
				}
			}
		}
		return true
	case *ast.EmptyStmt:
		return true
	}
	return c.fail("order-dependent statement")
}

func (c *insensitivity) addDef(e ast.Expr) {
	if id, ok := e.(*ast.Ident); ok && id != nil {
		if obj := c.info.Defs[id]; obj != nil {
			c.locals[obj] = true
		}
	}
}

func (c *insensitivity) assignOK(s *ast.AssignStmt, guard ast.Expr) bool {
	for _, rhs := range s.Rhs {
		if !c.pure(rhs) {
			return c.fail("impure assignment right-hand side")
		}
	}
	switch s.Tok {
	case token.DEFINE:
		for _, lhs := range s.Lhs {
			c.addDef(lhs)
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		// Commutative accumulation: final value independent of order.
		return true
	case token.ASSIGN:
		if len(s.Lhs) != len(s.Rhs) {
			return c.fail("tuple assignment")
		}
		for i, lhs := range s.Lhs {
			if c.rootedInLocal(lhs) {
				continue // per-iteration state
			}
			if ix, ok := lhs.(*ast.IndexExpr); ok {
				// m2[k] = v: per-key slots commute across orders.
				if _, isMap := c.info.TypeOf(ix.X).Underlying().(*types.Map); isMap && c.isKey(ix.Index) {
					continue
				}
				return c.fail("indexed write not keyed by the loop variable")
			}
			// Max/min update: `if v > best { best = v }` commutes.
			if guard != nil && isExtremumUpdate(guard, lhs, s.Rhs[i]) {
				continue
			}
			return c.fail("plain assignment to shared state")
		}
		return true
	}
	return c.fail("unsupported assignment operator")
}

// rootedInLocal reports whether an lvalue is (a component of) a
// per-iteration local: the blank identifier, a loop-scoped variable, or
// a selector/index/deref chain rooted at one.
func (c *insensitivity) rootedInLocal(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if x.Name == "_" {
				return true
			}
			obj := c.info.Uses[x]
			if obj == nil {
				obj = c.info.Defs[x]
			}
			return c.locals[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return false
		}
	}
}

// isKey reports whether e is exactly the loop's key variable. Exact
// identity is required — a derived expression like m2[k+1] or
// delete(m2, f(k)) is not injective in general, so a per-key-slot
// argument cannot be made for it.
func (c *insensitivity) isKey(e ast.Expr) bool {
	if c.keyObj == nil {
		return false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && c.info.Uses[id] == c.keyObj
}

// pure reports whether evaluating e has no side effects: no calls (bar
// len/cap/min/max and type conversions), no channel receives.
func (c *insensitivity) pure(e ast.Expr) bool {
	if e == nil {
		return true
	}
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if c.info.Types[n.Fun].IsType() {
				return true // conversion
			}
			if b, ok := c.info.Uses[calleeIdent(n)].(*types.Builtin); ok {
				switch b.Name() {
				case "len", "cap", "min", "max", "real", "imag", "complex":
					return true
				}
			}
			pure = false
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pure = false
				return false
			}
		case *ast.FuncLit:
			return false // a literal is inert until called
		}
		return pure
	})
	return pure
}

// calleeIdent extracts the identifier a call invokes: f in f(…), Sel in
// x.Sel(…). Builtins are always the former.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// isExtremumUpdate recognizes `if y OP x { x = y }` for a comparison OP,
// the commutative max/min-update idiom, by textual operand match.
func isExtremumUpdate(cond, lhs, rhs ast.Expr) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch b.Op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
	default:
		return false
	}
	lt, rt := types.ExprString(lhs), types.ExprString(rhs)
	cx, cy := types.ExprString(b.X), types.ExprString(b.Y)
	return (cx == lt && cy == rt) || (cx == rt && cy == lt)
}

// sortFuncs are the functions that put a slice, their first argument,
// in a deterministic order.
var sortFuncs = map[string]map[string]bool{
	"sort": {"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// collectForSort recognizes the canonical deterministic-iteration idiom:
//
//	keys := make([]K, 0, len(m))
//	for k := range m { keys = append(keys, k) }
//	sort.Strings(keys)   // or any sortFuncs entry
//
// The append-only loop is order-sensitive in isolation; it is admitted
// when every appended-to slice — the variable itself, not one that shares
// its name — is the first argument of a sortFuncs call after the loop in
// body, the loop's own function body (a nested closure does not count).
func (c *checker) collectForSort(rs *ast.RangeStmt, body *ast.BlockStmt) bool {
	info := c.pkg.TypesInfo
	collected := map[types.Object]bool{}
	for _, s := range rs.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) < 1 {
			return false
		}
		if b, ok := info.Uses[calleeIdent(call)].(*types.Builtin); !ok || b.Name() != "append" {
			return false
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		arg, _ := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok || arg == nil || info.Uses[lhs] == nil || info.Uses[arg] != info.Uses[lhs] {
			return false
		}
		collected[info.Uses[lhs]] = true
	}
	if len(collected) == 0 || body == nil {
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if n.Pos() <= rs.End() || len(n.Args) == 0 {
				return true
			}
			if fn := c.pkgFunc(calleeIdent(n)); fn != nil && sortFuncs[fn.Pkg().Path()][fn.Name()] {
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					delete(collected, info.Uses[id])
				}
			}
		}
		return true
	})
	return len(collected) == 0
}
