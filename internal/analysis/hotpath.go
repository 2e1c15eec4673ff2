package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAnalyzer enforces the zero-alloc contract on functions
// annotated //simlint:hotpath — the per-event and per-packet paths whose
// allocation-free operation the PR 7/PR 9 CI gates measure dynamically.
// Inside an annotated function it flags:
//
//   - closure literals inside a loop that capture a loop variable: each
//     such literal allocates per iteration (the repo idiom is a closure
//     cached once at construction, cf. network.newPacket);
//   - calls into package fmt (allocation + reflection), except inside
//     panic arguments, which are off the happy path by construction;
//   - implicit interface-boxing conversions of non-pointer-shaped
//     values (assignments, call arguments, sends, returns), which
//     heap-allocate the boxed copy;
//   - growable appends, except the one-element push onto a list the
//     receiver owns (`x.f = append(x.f, v)`, x the method's receiver):
//     the free-list and bucket idiom, amortized O(1) once capacity
//     reaches steady state. Anything else must pre-size.
var HotpathAnalyzer = &Analyzer{
	Name: "hotpath",
	Doc: "bans per-call allocation inside //simlint:hotpath functions: " +
		"loop-capturing closures, fmt, interface boxing, growable appends",
	Run: runHotpath,
}

func runHotpath(p *Pass) {
	if !isFirstParty(p.Pkg.Path()) {
		return
	}
	for fd := range p.ann.hotpath {
		if fd.Body == nil {
			continue
		}
		checkHotFunc(p, fd)
	}
}

// loopInfo records one for/range loop inside a hot function: its source
// extent and the variables its header defines.
type loopInfo struct {
	pos, end token.Pos
	vars     map[types.Object]bool
}

func checkHotFunc(p *Pass, fd *ast.FuncDecl) {
	loops := collectLoops(p, fd.Body)
	var panicRanges []loopInfo // reuse the extent shape for panic() args
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if b, ok := p.TypesInfo.Uses[calleeIdent(call)].(*types.Builtin); ok && b.Name() == "panic" {
			panicRanges = append(panicRanges, loopInfo{pos: call.Pos(), end: call.End()})
		}
		return true
	})
	insidePanic := func(pos token.Pos) bool {
		for _, r := range panicRanges {
			if r.pos <= pos && pos < r.end {
				return true
			}
		}
		return false
	}

	pushes := map[*ast.CallExpr]bool{}
	var sig *types.Signature
	if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		sig = obj.Type().(*types.Signature)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkLoopCapture(p, n, loops)
		case *ast.CallExpr:
			if !pushes[n] {
				checkHotCall(p, n, insidePanic)
			}
		case *ast.AssignStmt:
			if call := receiverPush(p, fd, n); call != nil {
				pushes[call] = true // visited after its statement
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					checkBoxing(p, n.Rhs[i], p.TypesInfo.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.SendStmt:
			if ch, ok := p.TypesInfo.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				checkBoxing(p, n.Value, ch.Elem())
			}
		case *ast.ReturnStmt:
			if sig != nil && sig.Results().Len() == len(n.Results) {
				for i, r := range n.Results {
					checkBoxing(p, r, sig.Results().At(i).Type())
				}
			}
		}
		return true
	})
}

// receiverPush recognizes `x.f = append(x.f, v)` — one element pushed
// onto a list reached from fd's receiver, assigned back to itself — and
// returns the append call, or nil.
func receiverPush(p *Pass, fd *ast.FuncDecl, as *ast.AssignStmt) *ast.CallExpr {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 ||
		as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 || call.Ellipsis != token.NoPos {
		return nil
	}
	if b, ok := p.TypesInfo.Uses[calleeIdent(call)].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	if types.ExprString(as.Lhs[0]) != types.ExprString(call.Args[0]) {
		return nil
	}
	// The list must hang off the receiver: x.f, x.f[i], x.a.f ...
	root := as.Lhs[0]
	for depth := 0; ; depth++ {
		switch e := root.(type) {
		case *ast.SelectorExpr:
			root = e.X
			continue
		case *ast.IndexExpr:
			root = e.X
			continue
		case *ast.Ident:
			if depth > 0 && p.TypesInfo.Uses[e] == p.TypesInfo.Defs[fd.Recv.List[0].Names[0]] {
				return call
			}
		}
		return nil
	}
}

// collectLoops records every for/range loop in body with the objects its
// header defines.
func collectLoops(p *Pass, body *ast.BlockStmt) []loopInfo {
	var loops []loopInfo
	addDef := func(vars map[types.Object]bool, e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			if obj := p.TypesInfo.Defs[id]; obj != nil {
				vars[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			vars := map[types.Object]bool{}
			if as, ok := n.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE {
				for _, lhs := range as.Lhs {
					addDef(vars, lhs)
				}
			}
			loops = append(loops, loopInfo{pos: n.Pos(), end: n.End(), vars: vars})
		case *ast.RangeStmt:
			vars := map[types.Object]bool{}
			addDef(vars, n.Key)
			addDef(vars, n.Value)
			loops = append(loops, loopInfo{pos: n.Pos(), end: n.End(), vars: vars})
		}
		return true
	})
	return loops
}

// checkLoopCapture flags a closure literal that sits inside a loop and
// captures one of that loop's variables: one allocation per iteration,
// exactly what the cached-closure idiom exists to avoid. A literal
// outside any enclosing loop is a single allocation and legal (though
// unusual on a hot path).
func checkLoopCapture(p *Pass, fl *ast.FuncLit, loops []loopInfo) {
	for _, l := range loops {
		if fl.Pos() < l.pos || fl.Pos() >= l.end || len(l.vars) == 0 {
			continue
		}
		var captured types.Object
		ast.Inspect(fl.Body, func(m ast.Node) bool {
			if captured != nil {
				return false
			}
			if id, ok := m.(*ast.Ident); ok {
				if obj := p.TypesInfo.Uses[id]; obj != nil && l.vars[obj] {
					captured = obj
				}
			}
			return true
		})
		if captured != nil {
			p.Reportf(fl.Pos(),
				"closure captures loop variable %s in a hot path: allocates per iteration — hoist it or use the cached-closure idiom",
				captured.Name())
			return
		}
	}
}

func checkHotCall(p *Pass, call *ast.CallExpr, insidePanic func(token.Pos) bool) {
	if insidePanic(call.Pos()) {
		return // panic arguments are off the happy path by construction
	}
	// fmt calls.
	if fn := calleeFunc(p, call); fn != nil && fn.Pkg().Path() == "fmt" {
		p.Reportf(call.Pos(),
			"fmt.%s in a hot path allocates: format off the hot path or annotate //simlint:allow hotpath <reason>",
			fn.Name())
	}
	// Growable appends.
	if b, ok := p.TypesInfo.Uses[calleeIdent(call)].(*types.Builtin); ok && b.Name() == "append" {
		p.Reportf(call.Pos(),
			"append in a hot path may grow and allocate: pre-size the slice, or push one element onto a list the receiver owns")
		return
	}
	// Interface-boxing at call arguments.
	sig, ok := p.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return // conversion or builtin
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if call.Ellipsis != token.NoPos {
				pt = last // s... passes the slice through, no boxing
			} else if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		checkBoxing(p, arg, pt)
	}
}

// checkBoxing flags an implicit conversion of a non-pointer-shaped
// concrete value to an interface type: the compiler heap-allocates the
// boxed copy (modulo small-value interning). Pointer-shaped kinds
// (pointers, channels, maps, funcs), untyped constants, and values
// already of interface type are exempt.
func checkBoxing(p *Pass, e ast.Expr, target types.Type) {
	if e == nil || target == nil {
		return
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	if tv.Value != nil {
		return // constant: interned or compile-time box
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Interface:
		return // interface-to-interface, no box
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped, boxes without allocating
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return
		}
	}
	p.Reportf(e.Pos(),
		"value of type %s boxed into %s in a hot path: heap-allocates — keep the concrete type or pass a pointer",
		types.TypeString(tv.Type, types.RelativeTo(p.Pkg)),
		types.TypeString(target, types.RelativeTo(p.Pkg)))
}
