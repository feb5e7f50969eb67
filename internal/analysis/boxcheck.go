package analysis

// boxcheck — the tgperf dispatch pass. Method calls through interface
// values inside the hot set cannot be devirtualized or inlined, and
// sort.Sort/sort.Slice* pay reflection plus a closure per call; both
// are reported. Calls through plain func values are deliberately NOT
// findings: a func value dispatches through a code pointer, not an
// itable.
// Cold blocks (error return / panic) and //perf:dispatch-annotated
// lines are exempt.

import (
	"go/ast"
	"go/types"
)

var Boxcheck = &Analyzer{
	Name:         "boxcheck",
	Doc:          "dynamic dispatch and reflection-based sorts in the steady-state hot set",
	NeedsProgram: true,
	Run:          runBoxcheck,
}

// sortReflect lists the sort-package entry points that go through
// sort.Interface or reflect.Swapper.
var sortReflect = map[string]bool{
	"Sort": true, "Stable": true, "Slice": true, "SliceStable": true, "SliceIsSorted": true,
}

func runBoxcheck(pass *Pass) {
	anns, _ := buildPerfAnns(pass.Fset, pass.Files, "") // allocfree reports malformed directives

	target := pass.Program.pkgByPath(pass.ImportPath)
	if target == nil {
		return
	}
	hot := buildHotSet(pass.Program, pass.Config, target)
	seen := make(map[string]bool)
	for _, key := range sortedHotKeys(hot) {
		e := hot[key]
		if e.pkg != target || hotEntryExempt(pass.Fset, anns, e, "dispatch") {
			continue
		}
		scanHot(e.pkg.Info, e.body(), func(n ast.Node, ctx *hotCtx) bool {
			boxcheckNode(pass, anns, e, n, ctx, seen)
			return true
		})
	}
}

func boxcheckNode(pass *Pass, anns annIndex, e *hotEntry, n ast.Node, ctx *hotCtx, seen map[string]bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok || ctx.cold {
		return
	}
	info := e.pkg.Info
	flag := func(msg string) {
		p := pass.Fset.Position(call.Pos())
		if anns.covered("dispatch", p) {
			return
		}
		key := p.String() + "|" + msg
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(call.Pos(), "hot-path dynamic dispatch (reachable from %s): %s — devirtualize or annotate //perf:dispatch <reason>", e.root, msg)
	}

	if fn := calleeFunc(e.pkg, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sort" && sortReflect[fn.Name()] {
		flag("sort." + fn.Name() + " sorts through reflection; use a concrete sort")
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return
	}
	if types.IsInterface(s.Recv()) {
		flag("interface method call " + types.TypeString(s.Recv(), nil) + "." + sel.Sel.Name)
	}
}
