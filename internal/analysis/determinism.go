package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Check enforces the byte-identical-replay contract (DESIGN.md Sec. 3)
// on pkg if it is a model package: between Build and Collect, the only
// admissible inputs are the seed and the scenario, and nothing a run
// reports depends on the host. It flags
//
//   - wall-clock reads: time.Now, time.Since, time.Until;
//   - the global math/rand and math/rand/v2 streams (top-level package
//     functions — explicit *rand.Rand/rng.Source constructors are fine);
//   - environment-derived behavior: os.Getenv, os.LookupEnv, os.Environ;
//   - every `range` over a map, except the collect-keys loop whose
//     slice the same function body sorts afterwards (collectForSort).
//
// The banned functions are flagged at every use, so `f := time.Now`
// counts as a read. There is no exemption: host time is bench/'s to
// measure, and bench/ is a module of its own.
func Check(pkg *Package) []Diagnostic {
	if !isModelPackage(pkg.Types.Path()) {
		return nil
	}
	c := &checker{pkg: pkg}
	for _, f := range pkg.Files {
		c.walk(f, nil)
	}
	return c.diags
}

// checker is one Check run over one package.
type checker struct {
	pkg   *Package
	diags []Diagnostic
}

func (c *checker) report(pos token.Pos, format string, args ...interface{}) {
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

// checkMapRange flags a range over a map. Go randomizes map order, and
// no body is safe to run in it by inspection alone: float += is not
// associative, so even a sum depends on the order. The one admitted
// loop is the collect-keys loop whose slice is sorted afterwards.
func (c *checker) checkMapRange(rs *ast.RangeStmt, body *ast.BlockStmt) {
	if _, ok := c.pkg.TypesInfo.TypeOf(rs.X).Underlying().(*types.Map); !ok || c.collectForSort(rs, body) {
		return
	}
	c.report(rs.Pos(), "range over map in model package: collect the keys, sort them, and iterate the slice")
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
