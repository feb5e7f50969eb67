package analysis

import (
	"go/ast"
	"go/token"
)

// Floatcheck flags == and != whose operands are floating point. The
// thermal and PDN solvers iterate to tolerances; exact equality on their
// outputs is almost always a latent bug (two mathematically equal
// expressions rarely compare equal after rounding). Raw comparison is
// allowed inside the approved epsilon helpers (Config.Floatcheck.Helpers)
// and in the x != x NaN idiom; everything else needs an epsilon
// comparison or a //lint:ignore floatcheck with a reason (sentinel-zero
// checks on values that are set, never computed, qualify). Test files
// are outside the driver's scope entirely.
var Floatcheck = &Analyzer{
	Name: "floatcheck",
	Doc:  "flags raw ==/!= on floating-point operands outside approved epsilon helpers",
	Run:  runFloatcheck,
}

func runFloatcheck(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if p.Config.floatcheckHelper(fn.Name.Name) {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if !isFloatType(p.TypeOf(be.X)) && !isFloatType(p.TypeOf(be.Y)) {
					return true
				}
				if sameExpr(be.X, be.Y) {
					return true // x != x: the portable NaN test
				}
				p.Reportf(be.OpPos, "floating-point %s comparison: rounding makes exact equality unreliable; use an epsilon helper or annotate an intentional sentinel check", be.Op)
				return true
			})
		}
	}
}

// sameExpr reports whether two expressions are syntactically identical
// simple references (covers the x != x NaN idiom).
func sameExpr(a, b ast.Expr) bool {
	switch a := ast.Unparen(a).(type) {
	case *ast.Ident:
		b, ok := ast.Unparen(b).(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		b, ok := ast.Unparen(b).(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && sameExpr(a.X, b.X)
	}
	return false
}
