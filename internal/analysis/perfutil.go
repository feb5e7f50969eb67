package analysis

// perfutil.go — shared machinery for the tgperf pass family (allocfree,
// boxcheck, capgrow). The family polices the steady-state performance
// contract from docs/PERFORMANCE.md: the per-epoch hot path allocates
// nothing and dispatches nothing dynamically, so the 160-320 PDN solves
// per epoch never pay GC or itable costs.
//
// This file contributes three ingredients:
//
//   - the hot set: every function reachable — over the tgflow call
//     graph, with statically-dead branches pruned — from the configured
//     hot roots (sim.Runner's per-epoch step, the pdn/thermal solve
//     entry points);
//
//   - the escape-lattice scanner scanHot: a statement walker that
//     threads the classification context the lattice needs —
//     StackLocal (value composites: no heap traffic), ReusedScratch
//     (nil-/cap-guarded makes, [:0] reslice-reset appends: amortized
//     to zero), Escapes (everything else: reported) — and exempts
//     cold blocks that end in an error return or panic;
//
//   - the //perf: annotation grammar for audited exceptions:
//
//       //perf:alloc <reason>     an intentional allocation in the hot
//                                 set (allocfree)
//       //perf:dispatch <reason>  an intentional dynamic dispatch in
//                                 the hot set (boxcheck)
//
//     A directive covers its own line and the line below it, the reason
//     is mandatory, and malformed directives are findings (reported by
//     allocfree once per package), mirroring //lint:ignore. A
//     directive whose covered line is a function declaration exempts the
//     whole body — the function-scope form, for functions that allocate
//     by design but run off the steady-state path (telemetry record
//     emission on instrumented runs, checkpoint snapshots).
//
// Incremental soundness: the hot set for a package P is built only from
// roots declared in P or P's transitive dependencies, and findings are
// reported only into P — exactly the closure the per-package
// fingerprints (incremental.go) already hash, so a cached entry can
// never go stale through a root the fingerprint does not cover. No
// tgperf pass consults prog.Callers.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------------
// //perf: annotations

const perfAnnPrefix = "//perf:"

var perfAnnKinds = map[string]bool{"alloc": true, "dispatch": true}

// buildPerfAnns scans the files for //perf: directives. Malformed ones
// are attributed to the given pass name; allocfree reports them so they
// surface exactly once per package. The //perf: index is per-package:
// a tgperf finding and its annotation always share a line, so no
// cross-package view is needed (which also keeps the incremental
// fingerprints sound).
func buildPerfAnns(fset *token.FileSet, files []*ast.File, reportPass string) (annIndex, []Diagnostic) {
	return buildAnnIndex(fset, files, perfAnnPrefix, perfAnnKinds, "alloc or dispatch", reportPass)
}

// hotEntryExempt reports whether a //perf: directive of the given kind
// covers the entry's declaration line, exempting the entire body — the
// function-scope form of the annotation grammar. The directive goes on
// the last line of the function's doc comment. Exemption is per pass
// kind and does not prune the hot-set BFS: callees of an exempt
// function stay hot and need their own triage.
func hotEntryExempt(fset *token.FileSet, anns annIndex, e *hotEntry, kind string) bool {
	return anns.covered(kind, fset.Position(e.fn.Decl.Pos()))
}

// ---------------------------------------------------------------------------
// Hot set

// hotEntry is one member of the hot set: a declared function (a func
// literal inside a hot function is covered by that function's own scan).
type hotEntry struct {
	key  string
	fn   *FlowFunc
	pkg  *Package
	root string // the root that made this entry hot, for diagnostics
}

// body returns the entry's statement body.
func (e *hotEntry) body() *ast.BlockStmt { return e.fn.Decl.Body }

// tgperfRoots returns the hot roots configured for a package, matched
// by base name or full import path.
func tgperfRoots(cfg *Config, importPath string) []string {
	if n, ok := cfg.Tgperf.Roots[importPath]; ok {
		return n
	}
	base := importPath[strings.LastIndex(importPath, "/")+1:]
	return cfg.Tgperf.Roots[base]
}

// depClosure returns the import paths of target plus its transitive
// dependencies, walked over the type-checker's package graph (export
// data included). The closure can under-approximate go list's Deps for
// packages only reachable through unexported API, which at worst drops
// a root — never a stale cache entry.
func depClosure(target *Package) map[string]bool {
	seen := map[string]bool{target.ImportPath: true}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p.Path()] {
			return
		}
		seen[p.Path()] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	if target.Types != nil {
		for _, imp := range target.Types.Imports() {
			walk(imp)
		}
	}
	return seen
}

// buildHotSet computes the hot set seen while analyzing target: BFS
// from every configured root declared in target's dependency closure,
// expanding through live direct calls (statically-dead branches are
// pruned, so release-build no-ops like `if invariant.Enabled` guards
// contribute nothing). Packages on the tgperf allowCallees list are not
// entered.
func buildHotSet(prog *Program, cfg *Config, target *Package) map[string]*hotEntry {
	closure := depClosure(target)
	entries := make(map[string]*hotEntry)
	var queue []*hotEntry
	add := func(e *hotEntry) {
		if entries[e.key] == nil {
			entries[e.key] = e
			queue = append(queue, e)
		}
	}
	for _, pkg := range prog.Pkgs {
		if !closure[pkg.ImportPath] {
			continue
		}
		for _, name := range tgperfRoots(cfg, pkg.ImportPath) {
			key := pkg.ImportPath + "." + name
			if fn := prog.Funcs[key]; fn != nil {
				add(&hotEntry{key: key, fn: fn, pkg: fn.Pkg, root: key})
			}
		}
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		expandHot(prog, cfg, e, add)
	}
	return entries
}

// expandHot walks one hot entry's live statements and queues its
// callees.
func expandHot(prog *Program, cfg *Config, e *hotEntry, add func(*hotEntry)) {
	inspectLive(e.pkg.Info, e.body(), func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(e.pkg, call)
		if callee == nil {
			return true
		}
		fn := prog.Funcs[FuncKey(callee)]
		if fn == nil || allowedBy(cfg.Tgperf.AllowCallees, fn.Pkg.ImportPath) {
			return true
		}
		add(&hotEntry{key: fn.Key, fn: fn, pkg: fn.Pkg, root: e.root})
		return true
	})
}

// sortedHotKeys returns the hot set's keys in deterministic order.
func sortedHotKeys(hot map[string]*hotEntry) []string {
	keys := make([]string, 0, len(hot))
	for k := range hot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------------
// Liveness

// constFalse reports whether the type checker folded e to the constant
// false — the release-build shape of `if invariant.Enabled { ... }`
// guards, whose bodies the compiler deletes.
func constFalse(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil && tv.Value.Kind() == constant.Bool && !constant.BoolVal(tv.Value)
}

// inspectLive is ast.Inspect with statically-dead if-bodies skipped:
// when an if condition folds to constant false the body is never
// visited (init and else still are), matching compiler dead-code
// elimination.
func inspectLive(info *types.Info, root ast.Node, f func(ast.Node) bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if !f(n) {
			return false
		}
		if ifs, ok := n.(*ast.IfStmt); ok && constFalse(info, ifs.Cond) {
			if ifs.Init != nil {
				inspectLive(info, ifs.Init, f)
			}
			if ifs.Else != nil {
				inspectLive(info, ifs.Else, f)
			}
			return false
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Hot-body scanner

// hotCtx is the classification context scanHot threads through a hot
// body. cold marks blocks that end in an error return or panic (error
// paths may allocate: they run once, not per epoch). scratch holds the
// ExprString forms of guarded scratch targets in scope — inside
// `if x == nil { ... }` or `if cap(x) < n { ... }` a make assigned to x
// is ReusedScratch, and after `x = x[:0]` appends to x reuse capacity.
// exempt marks nodes an enclosing construct already classified.
type hotCtx struct {
	cold    bool
	scratch map[string]bool
	exempt  map[ast.Node]bool
}

type hotWalker struct {
	info   *types.Info
	cb     func(ast.Node, *hotCtx) bool
	exempt map[ast.Node]bool
}

// scanHot walks a hot body in source order with liveness, cold-path,
// and scratch-guard context. cb returning false prunes the subtree.
func scanHot(info *types.Info, body *ast.BlockStmt, cb func(ast.Node, *hotCtx) bool) {
	w := &hotWalker{info: info, cb: cb, exempt: make(map[ast.Node]bool)}
	w.stmts(body.List, hotCtx{exempt: w.exempt})
}

func (w *hotWalker) stmts(list []ast.Stmt, ctx hotCtx) {
	for _, s := range list {
		ctx = w.stmt(s, ctx)
	}
}

// stmt walks one statement and returns the context for the statements
// after it in the same block (a [:0] reslice extends scratch downward).
func (w *hotWalker) stmt(s ast.Stmt, ctx hotCtx) hotCtx {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmts(s.List, ctx)
	case *ast.IfStmt:
		if s.Init != nil {
			ctx = w.stmt(s.Init, ctx)
		}
		if constFalse(w.info, s.Cond) {
			if s.Else != nil {
				w.stmt(s.Else, ctx)
			}
			return ctx
		}
		w.expr(s.Cond, ctx)
		bodyCtx := ctx
		if endsCold(w.info, s.Body.List) {
			bodyCtx.cold = true
		}
		if tgt := guardTarget(w.info, s.Cond); tgt != "" {
			bodyCtx.scratch = cloneAdd(bodyCtx.scratch, tgt)
		}
		w.stmts(s.Body.List, bodyCtx)
		if s.Else != nil {
			w.stmt(s.Else, ctx)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ctx = w.stmt(s.Init, ctx)
		}
		w.expr(s.Cond, ctx)
		if s.Post != nil {
			w.stmt(s.Post, ctx)
		}
		w.stmts(s.Body.List, ctx)
	case *ast.RangeStmt:
		w.expr(s.Key, ctx)
		w.expr(s.Value, ctx)
		w.expr(s.X, ctx)
		w.stmts(s.Body.List, ctx)
	case *ast.SwitchStmt:
		if s.Init != nil {
			ctx = w.stmt(s.Init, ctx)
		}
		w.expr(s.Tag, ctx)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e, ctx)
			}
			cctx := ctx
			if endsCold(w.info, cc.Body) {
				cctx.cold = true
			}
			w.stmts(cc.Body, cctx)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			ctx = w.stmt(s.Init, ctx)
		}
		w.stmt(s.Assign, ctx)
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			cctx := ctx
			if endsCold(w.info, cc.Body) {
				cctx.cold = true
			}
			w.stmts(cc.Body, cctx)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.stmt(cc.Comm, ctx)
			}
			cctx := ctx
			if endsCold(w.info, cc.Body) {
				cctx.cold = true
			}
			w.stmts(cc.Body, cctx)
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, ctx)
	case *ast.AssignStmt:
		if len(s.Lhs) == len(s.Rhs) {
			for i := range s.Lhs {
				lhs := types.ExprString(ast.Unparen(s.Lhs[i]))
				rhs := ast.Unparen(s.Rhs[i])
				if ctx.scratch[lhs] && isBuiltinCall(w.info, rhs, "make") {
					w.exempt[rhs] = true // guarded (re)allocation: ReusedScratch
				}
				if isSelfReslice(rhs, lhs) {
					ctx.scratch = cloneAdd(ctx.scratch, lhs)
				}
				if ctx.scratch[lhs] {
					if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinCall(w.info, call, "append") &&
						len(call.Args) > 0 && types.ExprString(ast.Unparen(call.Args[0])) == lhs {
						w.exempt[call] = true // append into reused scratch
					}
				}
			}
		}
		for _, e := range s.Lhs {
			w.expr(e, ctx)
		}
		for _, e := range s.Rhs {
			w.expr(e, ctx)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, ctx)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, ctx)
		}
	case *ast.ExprStmt:
		w.expr(s.X, ctx)
	case *ast.SendStmt:
		w.expr(s.Chan, ctx)
		w.expr(s.Value, ctx)
	case *ast.IncDecStmt:
		w.expr(s.X, ctx)
	case *ast.DeferStmt:
		// A func literal deferred outside a loop is open-coded and
		// stack-allocated; exempting it here keeps recover trampolines
		// clean without an annotation.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.exempt[lit] = true
		}
		w.expr(s.Call, ctx)
	case *ast.GoStmt:
		w.expr(s.Call, ctx)
	}
	return ctx
}

// expr walks an expression, diverting func-literal bodies back through
// the statement walker so their context stays threaded.
func (w *hotWalker) expr(e ast.Expr, ctx hotCtx) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			if !w.cb(lit, &ctx) {
				return false
			}
			w.stmts(lit.Body.List, ctx)
			return false
		}
		return w.cb(n, &ctx)
	})
}

// cloneAdd returns a copy of set with key added.
func cloneAdd(set map[string]bool, key string) map[string]bool {
	out := make(map[string]bool, len(set)+1)
	for k, v := range set {
		out[k] = v
	}
	out[key] = true
	return out
}

// endsCold reports whether a statement list ends by returning a non-nil
// error or panicking — the shape of a validation/failure path that runs
// once, not per epoch.
func endsCold(info *types.Info, list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		for _, r := range last.Results {
			if isNilIdent(r) {
				continue
			}
			if t := typeOf(info, r); t != nil && isErrorType(t) {
				return true
			}
		}
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return endsCold(info, last.List)
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

// guardTarget recognizes the scratch-guard conditions: `x == nil`,
// `cap(x) < n` (any comparison direction, len accepted too), and the
// disjunction of two guards on the same target. It returns the guarded
// expression in ExprString form, or "".
func guardTarget(info *types.Info, cond ast.Expr) string {
	c, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return ""
	}
	switch c.Op {
	case token.LOR:
		a, b := guardTarget(info, c.X), guardTarget(info, c.Y)
		if a != "" && a == b {
			return a
		}
	case token.EQL:
		if isNilIdent(c.Y) {
			return types.ExprString(ast.Unparen(c.X))
		}
		if isNilIdent(c.X) {
			return types.ExprString(ast.Unparen(c.Y))
		}
	case token.NEQ, token.LSS, token.LEQ:
		if t := capLenArg(info, c.X); t != "" {
			return t
		}
		if c.Op == token.NEQ {
			return capLenArg(info, c.Y)
		}
	case token.GTR, token.GEQ:
		return capLenArg(info, c.Y)
	}
	return ""
}

// capLenArg returns the argument of a cap() or len() builtin call in
// ExprString form, or "".
func capLenArg(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return ""
	}
	if isBuiltinCall(info, call, "cap") || isBuiltinCall(info, call, "len") {
		return types.ExprString(ast.Unparen(call.Args[0]))
	}
	return ""
}

// isBuiltinCall reports whether n is a call to the named builtin.
func isBuiltinCall(info *types.Info, n ast.Node, name string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.ObjectOf(id).(*types.Builtin)
	return ok
}

// isSelfReslice reports whether rhs is `lhs[:0]` (or `lhs[0:0]`) — the
// reslice-reset that marks lhs as reusable scratch.
func isSelfReslice(rhs ast.Expr, lhs string) bool {
	sl, ok := ast.Unparen(rhs).(*ast.SliceExpr)
	if !ok || sl.Slice3 {
		return false
	}
	if types.ExprString(ast.Unparen(sl.X)) != lhs {
		return false
	}
	return isZeroLit(sl.High) && (sl.Low == nil || isZeroLit(sl.Low))
}

func isZeroLit(e ast.Expr) bool {
	if e == nil {
		return false
	}
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// isZeroReslice reports whether e is a `x[:0]` reslice-reset (used for
// the inline `append(x[:0], ...)` form).
func isZeroReslice(e ast.Expr) bool {
	sl, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || sl.Slice3 {
		return false
	}
	return isZeroLit(sl.High) && (sl.Low == nil || isZeroLit(sl.Low))
}
