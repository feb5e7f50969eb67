package analysis

import (
	"go/ast"
	"go/types"
)

// Errsink flags dropped error results, stricter than go vet:
//
//   - any call in statement position (including defer and go) that
//     discards an error returned by a module-internal API
//     (Config.Errsink.InternalPrefixes) or by a callee on the strict-name list
//     (Step, SetPower, SteadyState, Emit, Flush, Close, Write, ...);
//   - explicit blank discards (`_ = r.Step(dt)`) of strict-list callees:
//     solver and sink errors carry state-corruption signals, so even a
//     deliberate drop must be annotated with its justification.
var Errsink = &Analyzer{
	Name: "errsink",
	Doc:  "flags dropped error results from solver/sink APIs",
	Run:  runErrsink,
}

func runErrsink(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					checkDroppedCall(p, call, "")
				}
			case *ast.DeferStmt:
				checkDroppedCall(p, n.Call, "deferred ")
			case *ast.GoStmt:
				checkDroppedCall(p, n.Call, "spawned ")
			case *ast.AssignStmt:
				checkBlankDiscard(p, n)
			}
			return true
		})
	}
}

// errorResultIndexes returns the positions of error-typed results.
func errorResultIndexes(sig *types.Signature) []int {
	var idx []int
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			idx = append(idx, i)
		}
	}
	return idx
}

// inScope reports whether the callee is one errsink polices: a strict
// method name, or any function from a module-internal package.
func inScope(p *Pass, call *ast.CallExpr) (string, bool) {
	name := calleeName(call)
	if p.Config.errsinkMethod(name) {
		return name, true
	}
	if obj := p.ObjectOf(call.Fun); obj != nil && obj.Pkg() != nil &&
		p.Config.errsinkInternal(obj.Pkg().Path()) {
		return name, true
	}
	return name, false
}

func checkDroppedCall(p *Pass, call *ast.CallExpr, prefix string) {
	sig, ok := typeAsSignature(p.TypeOf(call.Fun))
	if !ok {
		return
	}
	if len(errorResultIndexes(sig)) == 0 {
		return
	}
	name, ok := inScope(p, call)
	if !ok {
		return
	}
	p.Reportf(call.Pos(), "%serror result of %s is silently discarded; handle it or annotate with //lint:ignore errsink <reason>", prefix, name)
}

// checkBlankDiscard flags `_ = f()` / `x, _ := f()` when the blanked
// result is the error of a strict-list callee.
func checkBlankDiscard(p *Pass, a *ast.AssignStmt) {
	if len(a.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	name := calleeName(call)
	if !p.Config.errsinkMethod(name) {
		return
	}
	sig, ok := typeAsSignature(p.TypeOf(call.Fun))
	if !ok {
		return
	}
	errIdx := errorResultIndexes(sig)
	for _, i := range errIdx {
		if i >= len(a.Lhs) {
			continue
		}
		if id, ok := a.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
			p.Reportf(a.Lhs[i].Pos(), "error result of %s is blanked; solver/sink errors signal corrupted state — handle it or annotate with //lint:ignore errsink <reason>", name)
		}
	}
}
