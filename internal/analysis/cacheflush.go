package analysis

// cacheflush generalizes the rebuildPaths invariant: derived caches
// (the PDN's per-mask effective-resistance vectors) are flushed only when
// the topology they were computed from changes, so any mutation of a
// watched field that is not followed by the corresponding flush call on
// every path to return serves stale physics. Rules come from
// Config.Cacheflush.Rules: each names a type (base name or full
// "importpath.Name"), the fields whose mutation invalidates the cache,
// and the flush callees that rebuild it.
//
// Exemptions: mutations inside a function named in the flush list (the
// flush routine rebuilds the fields it owns), and mutations through a
// local the function itself allocated (&T{...}, T{...}, new, make) —
// the constructor idiom, where no stale cache can exist yet.
//
// The "every path" check runs on the tgflow CFG (cfg.go): a mutation is
// clean when a flush call appears later in its own basic block, or when
// every block reachable from it encounters a flush before the exit
// block (greatest-fixpoint must-analysis, so loops and early returns
// are handled exactly).

import (
	"go/ast"
	"go/types"
	"strings"
)

// Cacheflush is the mutation-implies-flush analyzer.
var Cacheflush = &Analyzer{
	Name: "cacheflush",
	Doc:  "cache-invalidating mutations must be followed by the matching flush on every path",
	Run:  runCacheflush,
}

func runCacheflush(pass *Pass) {
	rules := pass.Config.Cacheflush.Rules
	if len(rules) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCacheflushFunc(pass, fd, rules)
		}
	}
}

func checkCacheflushFunc(pass *Pass, fd *ast.FuncDecl, rules []CacheflushRule) {
	var cfg *CFG // built on first watched mutation only
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var lhs ast.Expr
		var stmt ast.Stmt
		switch n := n.(type) {
		case *ast.AssignStmt:
			stmt = n
			for _, l := range n.Lhs {
				checkCacheflushWrite(pass, fd, &cfg, stmt, l, rules)
			}
			return true
		case *ast.IncDecStmt:
			stmt, lhs = n, n.X
			checkCacheflushWrite(pass, fd, &cfg, stmt, lhs, rules)
		}
		return true
	})
}

func checkCacheflushWrite(pass *Pass, fd *ast.FuncDecl, cfg **CFG, stmt ast.Stmt, lhs ast.Expr, rules []CacheflushRule) {
	// Walk the write chain (x.f, x.f[i], *x.f …) checking every selector
	// against the rules.
	for e := ast.Unparen(lhs); ; {
		switch t := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(t.X)
		case *ast.StarExpr:
			e = ast.Unparen(t.X)
		case *ast.SelectorExpr:
			for i := range rules {
				r := &rules[i]
				if fieldMatches(pass, t, r) {
					reportUnflushed(pass, fd, cfg, stmt, t, r)
				}
			}
			e = ast.Unparen(t.X)
		default:
			return
		}
	}
}

// fieldMatches reports whether the selector writes a watched field of a
// watched type.
func fieldMatches(pass *Pass, sel *ast.SelectorExpr, r *CacheflushRule) bool {
	found := false
	for _, f := range r.Fields {
		if f == sel.Sel.Name {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	t := pass.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if strings.Contains(r.Type, ".") {
		full := named.Obj().Name()
		if named.Obj().Pkg() != nil {
			full = named.Obj().Pkg().Path() + "." + full
		}
		return r.Type == full
	}
	return r.Type == named.Obj().Name()
}

func reportUnflushed(pass *Pass, fd *ast.FuncDecl, cfg **CFG, stmt ast.Stmt, sel *ast.SelectorExpr, r *CacheflushRule) {
	// The flush routine itself owns these fields.
	for _, name := range r.Flush {
		if fd.Name.Name == name {
			return
		}
	}
	if freshLocalRoot(pass, fd, sel) {
		return // constructor idiom: no cache exists yet
	}
	if *cfg == nil {
		*cfg = BuildCFG(fd)
	}
	if !flushPostdominates(*cfg, stmt, r.Flush) {
		pass.Reportf(sel.Pos(), "mutation of %s.%s is not followed by %s on every path to return",
			r.Type, sel.Sel.Name, strings.Join(r.Flush, "/"))
	}
}

// freshLocalRoot reports whether the write chain is rooted in a local
// the function allocated itself.
func freshLocalRoot(pass *Pass, fd *ast.FuncDecl, sel *ast.SelectorExpr) bool {
	e := ast.Unparen(sel.X)
	for {
		switch t := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(t.X)
		case *ast.StarExpr:
			e = ast.Unparen(t.X)
		case *ast.SelectorExpr:
			e = ast.Unparen(t.X)
		default:
			id, ok := e.(*ast.Ident)
			if !ok {
				return false
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil {
				return false
			}
			return allocatedBy(pass, fd, obj)
		}
	}
}

// allocatedBy reports whether obj is bound, anywhere in fd, to memory
// the function created: &T{...}, T{...}, new(T), or make(...).
func allocatedBy(pass *Pass, fd *ast.FuncDecl, obj types.Object) bool {
	fresh := func(e ast.Expr) bool {
		switch e := ast.Unparen(e).(type) {
		case *ast.CompositeLit:
			return true
		case *ast.UnaryExpr:
			_, lit := ast.Unparen(e.X).(*ast.CompositeLit)
			return e.Op.String() == "&" && lit
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.ObjectOf(id).(*types.Builtin); ok {
					return b.Name() == "new" || b.Name() == "make"
				}
			}
		}
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if ok && pass.Info.ObjectOf(id) == obj && i < len(n.Rhs) && fresh(n.Rhs[i]) {
					found = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if pass.Info.ObjectOf(name) == obj && i < len(n.Values) && fresh(n.Values[i]) {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// flushPostdominates reports whether every execution continuing from
// stmt reaches one of the flush callees before the function exits.
func flushPostdominates(cfg *CFG, stmt ast.Stmt, flush []string) bool {
	callsFlush := func(n ast.Node) bool {
		has := false
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch f := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				name = f.Name
			case *ast.SelectorExpr:
				name = f.Sel.Name
			}
			for _, want := range flush {
				if name == want {
					has = true
				}
			}
			return !has
		})
		return has
	}

	// Locate the mutation's block and statement index. A mutation inside
	// a nested func literal is not a statement of this CFG; treat it
	// conservatively as unflushed.
	blockOf, idxOf := -1, -1
	for _, b := range cfg.Blocks {
		for i, s := range b.Stmts {
			if s == stmt {
				blockOf, idxOf = b.Index, i
			}
		}
	}
	if blockOf == -1 {
		return false
	}

	// Greatest-fixpoint must-analysis: mustFlush[b] ⇔ every path from
	// b's entry to the exit encounters a flush call.
	mustFlush := make([]bool, len(cfg.Blocks))
	hasFlush := make([]bool, len(cfg.Blocks))
	for i, b := range cfg.Blocks {
		mustFlush[i] = true
		for _, s := range b.Stmts {
			if callsFlush(s) {
				hasFlush[i] = true
			}
		}
	}
	mustFlush[cfg.Exit().Index] = false
	for changed := true; changed; {
		changed = false
		for i, b := range cfg.Blocks {
			if hasFlush[i] || !mustFlush[i] {
				continue
			}
			ok := len(b.Succs) > 0
			for _, s := range b.Succs {
				if !mustFlush[s.Index] {
					ok = false
				}
			}
			if b.Index == cfg.Exit().Index {
				ok = false
			}
			if !ok {
				mustFlush[i] = false
				changed = true
			}
		}
	}

	// Flush later in the mutation's own block?
	b := cfg.Blocks[blockOf]
	for i := idxOf + 1; i < len(b.Stmts); i++ {
		if callsFlush(b.Stmts[i]) {
			return true
		}
	}
	if len(b.Succs) == 0 {
		return false
	}
	for _, s := range b.Succs {
		if !mustFlush[s.Index] {
			return false
		}
	}
	return true
}
