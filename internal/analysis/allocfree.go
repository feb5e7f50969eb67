package analysis

// allocfree — the tgperf allocation pass. Every heap-allocating
// construct inside the hot set (see perfutil.go) is classified on the
// escape lattice:
//
//	StackLocal    value composite literals and plain value declarations:
//	              no heap traffic, never reported;
//	ReusedScratch makes guarded by `x == nil` / `cap(x) < n`, appends
//	              into a `x[:0]` reslice-reset, and //perf:alloc-
//	              annotated cache-miss paths: amortized to zero in
//	              steady state, never reported;
//	Escapes       everything else — bare make/new, &composite literals,
//	              slice/map literals, unbounded appends, closure
//	              creation, string concatenation, fmt.* calls, and
//	              interface boxing of scalars — reported.
//
// Blocks that end in an error return or panic are cold (they run once,
// not per epoch) and are exempt, as are statically-dead branches such
// as release-build `if invariant.Enabled` guards. The dynamic
// AllocsPerRun gate in internal/sim/alloc_test.go cross-checks the
// static claim at runtime.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var Allocfree = &Analyzer{
	Name:         "allocfree",
	Doc:          "heap-allocating constructs in the steady-state hot set",
	NeedsProgram: true,
	Run:          runAllocfree,
}

func runAllocfree(pass *Pass) {
	anns, bad := buildPerfAnns(pass.Fset, pass.Files, pass.Analyzer.Name)
	pass.diags = append(pass.diags, bad...)

	target := pass.Program.pkgByPath(pass.ImportPath)
	if target == nil {
		return
	}
	hot := buildHotSet(pass.Program, pass.Config, target)
	seen := make(map[string]bool)
	for _, key := range sortedHotKeys(hot) {
		e := hot[key]
		if e.pkg != target || hotEntryExempt(pass.Fset, anns, e, "alloc") {
			continue
		}
		scanHot(e.pkg.Info, e.body(), func(n ast.Node, ctx *hotCtx) bool {
			allocCheck(pass, anns, e, n, ctx, seen)
			return true
		})
	}
}

// allocCheck classifies one node of a hot body and reports the Escapes
// tier.
func allocCheck(pass *Pass, anns annIndex, e *hotEntry, n ast.Node, ctx *hotCtx, seen map[string]bool) {
	info := e.pkg.Info
	flag := func(pos token.Pos, msg string) {
		if ctx.cold || ctx.exempt[n] {
			return
		}
		p := pass.Fset.Position(pos)
		if anns.covered("alloc", p) {
			return
		}
		key := p.String() + "|" + msg
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(pos, "hot-path allocation (reachable from %s): %s — hoist into reused scratch or annotate //perf:alloc <reason>", e.root, msg)
	}

	switch n := n.(type) {
	case *ast.CallExpr:
		if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
			ctx.exempt[lit] = true // immediately invoked: no closure object
		}
		switch {
		case isBuiltinCall(info, n, "make"):
			flag(n.Pos(), "make allocates per call")
		case isBuiltinCall(info, n, "new"):
			flag(n.Pos(), "new allocates per call")
		case isBuiltinCall(info, n, "append"):
			if len(n.Args) > 0 && isZeroReslice(n.Args[0]) {
				return // append(x[:0], ...): ReusedScratch
			}
			if len(n.Args) > 0 && ctx.scratch[types.ExprString(ast.Unparen(n.Args[0]))] {
				return
			}
			flag(n.Pos(), "append may grow its backing array")
		default:
			if fn := calleeFunc(e.pkg, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				flag(n.Pos(), "fmt."+fn.Name()+" allocates")
				return
			}
			boxCheckArgs(e, n, flag)
		}
	case *ast.FuncLit:
		flag(n.Pos(), "func literal allocates a closure per evaluation")
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				flag(n.Pos(), "&composite literal escapes to the heap")
			}
		}
	case *ast.CompositeLit:
		if t := typeOf(info, n); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				flag(n.Pos(), "slice literal allocates its backing array")
			case *types.Map:
				flag(n.Pos(), "map literal allocates")
			}
		}
	case *ast.BinaryExpr:
		if n.Op != token.ADD {
			return
		}
		if tv, ok := info.Types[n]; ok && tv.Value == nil && tv.Type != nil {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				flag(n.Pos(), "string concatenation allocates")
			}
		}
	}
}

// boxCheckArgs reports scalar arguments boxed into interface
// parameters at a hot call site.
func boxCheckArgs(e *hotEntry, call *ast.CallExpr, flag func(token.Pos, string)) {
	info := e.pkg.Info
	tv, ok := info.Types[ast.Unparen(call.Fun)]
	if !ok || tv.Type == nil {
		return
	}
	if tv.IsType() {
		// Conversion: T(x) boxes when T is an interface and x a scalar.
		if types.IsInterface(tv.Type) && len(call.Args) == 1 && isScalar(typeOf(info, call.Args[0])) {
			flag(call.Pos(), "conversion boxes a scalar into an interface")
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos || sig.Params().Len() == 0 {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt != nil && types.IsInterface(pt) && isScalar(typeOf(info, arg)) {
			flag(arg.Pos(), "argument boxes a scalar into an interface parameter")
		}
	}
}

// isScalar reports whether t is a basic (numeric, bool, string) type —
// the values whose interface conversion allocates a box.
func isScalar(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() != types.UntypedNil && b.Kind() != types.Invalid
}
