package analysis

// golife — goroutine and timer lifecycle analysis (tgsync). Three
// checks, the three leak classes PR 9's review fixed by hand:
//
//   1. Every `go` statement whose body runs a forever loop (`for` with
//      no condition) must reach a teardown construct from inside the
//      loop: a receive/select on a stop/done channel or ctx.Done(), or
//      a range over a channel — directly, or through an internal callee
//      (SCC-fixpoint teardown summaries, so serve's workers that park
//      in queue.Pop's stop-select are recognized).
//
//   2. Every time.NewTimer/NewTicker/AfterFunc must be owned: the
//      result bound and either stopped by defer, stopped on every path
//      (the cacheflush post-dominance machinery), or handed off (passed
//      to a call, stored in a field/map, returned, sent). A timer
//      registered in a map must be deleted from that map inside its own
//      AfterFunc callback, or fired timers accumulate forever. No timer
//      set exists in the service today; the golife fixture pins the rule.
//
//   3. Settle obligations (Tgsync.Settle, scoped to Tgsync.Packages): a
//      call to a terminal-transition trigger (finish/finishLocked) in a
//      function that is not itself part of the settle machinery must
//      have a settle call (jobSettled) reachable in its CFG. A finished
//      job that never reaches jobSettled keeps its spool entry, so a
//      restarted service runs the settled job again.
//
// //sync:owned <reason> exempts a site whose lifecycle is managed
// elsewhere.

import (
	"go/ast"
	"go/types"
	"strings"
)

var Golife = &Analyzer{
	Name:         "golife",
	Doc:          "goroutines and timers are tied to a teardown path; terminal transitions settle",
	Run:          runGolife,
	NeedsProgram: true,
}

func runGolife(pass *Pass) {
	prog := pass.Program
	pkg := prog.pkgByPath(pass.ImportPath)
	if pkg == nil {
		return
	}
	anns := syncAnns(prog)
	tear := prog.TeardownSummaries()

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, isGo := n.(*ast.GoStmt); isGo {
				checkGoStmt(pass, prog, pkg, anns, tear, g)
			}
			return true
		})
	}

	for _, u := range syncUnits(pkg) {
		checkTimers(pass, pkg, anns, u)
	}

	if pkgMatches(pass.Config.Tgsync.Packages, pass.ImportPath) {
		checkSettle(pass, pkg, anns)
	}
}

// ---------------------------------------------------------------------------
// go statements

func checkGoStmt(pass *Pass, prog *Program, pkg *Package, anns annIndex, tear map[string]bool, g *ast.GoStmt) {
	posn := pass.Fset.Position(g.Pos())
	if anns.covered("owned", posn) {
		return
	}
	var body *ast.BlockStmt
	bodyPkg := pkg
	if lit, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); isLit {
		body = lit.Body
	} else if fn := prog.FuncOf(pkg, g.Call); fn != nil {
		body = fn.Decl.Body
		bodyPkg = fn.Pkg
	} else {
		return // external or indirect worker: nothing to inspect
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		loop, isFor := n.(*ast.ForStmt)
		if !isFor || loop.Cond != nil {
			return true
		}
		if !hasTeardown(prog, bodyPkg, loop.Body, tear) {
			pass.Reportf(g.Pos(),
				"goroutine runs a forever loop with no reachable teardown (no stop/done channel, ctx.Done select, or channel range); annotate //sync:owned if its lifecycle is managed elsewhere")
			return false
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// timers

// timerCtor classifies a call as a timer/ticker constructor.
func timerCtor(pkg *Package, call *ast.CallExpr) string {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return ""
	}
	switch fn.Name() {
	case "NewTimer", "NewTicker", "AfterFunc":
		return "time." + fn.Name()
	}
	return ""
}

func checkTimers(pass *Pass, pkg *Package, anns annIndex, u *syncUnit) {
	// Find constructor calls that are statements of THIS unit (nested
	// literals are their own units).
	type site struct {
		call *ast.CallExpr
		ctor string
		stmt ast.Stmt // the binding/discarding statement
		obj  types.Object
	}
	var sites []site
	var walk func(root ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			s, isStmt := n.(ast.Stmt)
			if !isStmt {
				return true
			}
			switch s := s.(type) {
			case *ast.ExprStmt:
				if call, isCall := ast.Unparen(s.X).(*ast.CallExpr); isCall {
					if ctor := timerCtor(pkg, call); ctor != "" {
						sites = append(sites, site{call: call, ctor: ctor, stmt: s})
					}
					// Descend anyway: the AfterFunc callback literal is a
					// separate unit; arguments cannot hold another ctor stmt.
				}
			case *ast.AssignStmt:
				for i, rhs := range s.Rhs {
					call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
					if !isCall {
						continue
					}
					ctor := timerCtor(pkg, call)
					if ctor == "" {
						continue
					}
					var obj types.Object
					if i < len(s.Lhs) {
						if id, isIdent := s.Lhs[i].(*ast.Ident); isIdent && id.Name != "_" {
							obj = pkg.Info.ObjectOf(id)
						}
					}
					sites = append(sites, site{call: call, ctor: ctor, stmt: s, obj: obj})
				}
			case *ast.DeclStmt:
				if gd, isGen := s.Decl.(*ast.GenDecl); isGen {
					for _, spec := range gd.Specs {
						vs, isVal := spec.(*ast.ValueSpec)
						if !isVal {
							continue
						}
						for i, v := range vs.Values {
							call, isCall := ast.Unparen(v).(*ast.CallExpr)
							if !isCall {
								continue
							}
							ctor := timerCtor(pkg, call)
							if ctor == "" {
								continue
							}
							var obj types.Object
							if i < len(vs.Names) && vs.Names[i].Name != "_" {
								obj = pkg.Info.ObjectOf(vs.Names[i])
							}
							sites = append(sites, site{call: call, ctor: ctor, stmt: s, obj: obj})
						}
					}
				}
			}
			return true
		})
	}
	walk(u.decl.Body)

	var cfg *CFG
	getCFG := func() *CFG {
		if cfg == nil {
			cfg = BuildCFG(u.decl)
		}
		return cfg
	}

	for _, s := range sites {
		posn := pass.Fset.Position(s.call.Pos())
		if anns.covered("owned", posn) {
			continue
		}
		if s.obj == nil {
			pass.Reportf(s.call.Pos(),
				"%s result is dropped; the timer can never be stopped (bind it, or annotate //sync:owned)", s.ctor)
			continue
		}
		disp := timerDisposition(pkg, u, s.obj)
		if s.ctor == "time.AfterFunc" && disp.registeredIn != nil {
			// The PR 9 retry-set contract: a map-registered AfterFunc must
			// remove its own entry when it fires, or fired timers pile up.
			if !callbackDeletes(pkg, s.call, disp.registeredIn, s.obj) {
				pass.Reportf(s.call.Pos(),
					"fired timer is never removed from %s: the AfterFunc callback must delete its own entry (the set grows forever otherwise)",
					types.ExprString(disp.registeredIn))
			}
			continue
		}
		if disp.escapes || disp.deferStop {
			continue
		}
		match := func(st ast.Stmt) bool { return stmtCallsStop(pkg, st, s.obj) }
		if callPostdominates(getCFG(), s.stmt, match) {
			continue
		}
		pass.Reportf(s.call.Pos(),
			"%s is never stopped on every path to return (add defer %s.Stop(), stop it on all paths, or hand ownership off)",
			s.ctor, s.obj.Name())
	}
}

// timerDispo describes how a bound timer variable is used in its unit.
type timerDispo struct {
	deferStop    bool
	escapes      bool     // passed, returned, stored, sent: ownership moved
	registeredIn ast.Expr // the map expression of a `m[t] = ...` registration
}

func timerDisposition(pkg *Package, u *syncUnit, obj types.Object) timerDispo {
	var d timerDispo
	isObj := func(e ast.Expr) bool {
		id, isIdent := ast.Unparen(e).(*ast.Ident)
		return isIdent && pkg.Info.ObjectOf(id) == obj
	}
	ast.Inspect(u.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			if stmtCallsStop(pkg, &ast.ExprStmt{X: n.Call}, obj) {
				d.deferStop = true
			}
			return false
		case *ast.CallExpr:
			for _, a := range n.Args {
				if isObj(a) {
					d.escapes = true
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if isObj(r) {
					d.escapes = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, isKV := e.(*ast.KeyValueExpr); isKV {
					e = kv.Value
				}
				if isObj(e) {
					d.escapes = true
				}
			}
		case *ast.SendStmt:
			if isObj(n.Value) {
				d.escapes = true
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if idx, isIdx := lhs.(*ast.IndexExpr); isIdx && isObj(idx.Index) {
					d.registeredIn = idx.X
				}
				if i < len(n.Rhs) && isObj(n.Rhs[i]) {
					switch lhs.(type) {
					case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
						d.escapes = true
					}
				}
			}
		}
		return true
	})
	return d
}

// callbackDeletes reports whether the AfterFunc callback literal deletes
// the timer's entry from the registration map (matched by spelling —
// both sides name the same field chain in the supervisor idiom).
func callbackDeletes(pkg *Package, ctor *ast.CallExpr, mapExpr ast.Expr, obj types.Object) bool {
	if len(ctor.Args) != 2 {
		return false
	}
	lit, isLit := ast.Unparen(ctor.Args[1]).(*ast.FuncLit)
	if !isLit {
		return false
	}
	want := types.ExprString(mapExpr)
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall || found {
			return !found
		}
		id, isIdent := ast.Unparen(call.Fun).(*ast.Ident)
		if !isIdent || id.Name != "delete" || len(call.Args) != 2 {
			return true
		}
		if types.ExprString(ast.Unparen(call.Args[0])) != want {
			return true
		}
		if keyID, isKey := ast.Unparen(call.Args[1]).(*ast.Ident); isKey && pkg.Info.ObjectOf(keyID) == obj {
			found = true
		}
		return !found
	})
	return found
}

// stmtCallsStop reports whether the statement calls obj.Stop() outside
// nested literals.
func stmtCallsStop(pkg *Package, s ast.Stmt, obj types.Object) bool {
	return stmtContains(s, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return false
		}
		sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !isSel || sel.Sel.Name != "Stop" {
			return false
		}
		id, isIdent := ast.Unparen(sel.X).(*ast.Ident)
		return isIdent && pkg.Info.ObjectOf(id) == obj
	})
}

// ---------------------------------------------------------------------------
// settle obligations

func checkSettle(pass *Pass, pkg *Package, anns annIndex) {
	rules := pass.Config.Tgsync.Settle
	if len(rules) == 0 {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if !isFunc || fd.Body == nil {
				continue
			}
			for _, rule := range rules {
				if nameIn(fd.Name.Name, rule.Triggers) || nameIn(fd.Name.Name, rule.Notify) {
					continue // the settle machinery itself is exempt
				}
				checkSettleRule(pass, pkg, anns, fd, rule)
			}
		}
	}
}

func checkSettleRule(pass *Pass, pkg *Package, anns annIndex, fd *ast.FuncDecl, rule SettleRule) {
	var cfg *CFG
	notify := func(s ast.Stmt) bool {
		return stmtContains(s, func(n ast.Node) bool {
			call, isCall := n.(*ast.CallExpr)
			return isCall && nameIn(calleeName(call), rule.Notify)
		})
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall || !nameIn(calleeName(call), rule.Triggers) {
			return true
		}
		posn := pass.Fset.Position(call.Pos())
		if anns.covered("owned", posn) {
			return true
		}
		if cfg == nil {
			cfg = BuildCFG(fd)
		}
		stmt := enclosingStmt(cfg, call.Pos())
		if stmt != nil && (notify(stmt) || callReachable(cfg, stmt, notify)) {
			return true
		}
		pass.Reportf(call.Pos(),
			"terminal transition %s has no reachable %s call: the job's spool entry is never settled, so a restart runs the finished job again (//sync:owned if the job has no spool entry)",
			calleeName(call), strings.Join(rule.Notify, "/"))
		return true
	})
}

func nameIn(name string, list []string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

// callReachable reports whether some path forward from stmt reaches a
// statement for which match holds (existential CFG reachability —
// statements after stmt in its own block count).
func callReachable(cfg *CFG, stmt ast.Stmt, match func(ast.Stmt) bool) bool {
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
	b := cfg.Blocks[blockOf]
	for i := idxOf + 1; i < len(b.Stmts); i++ {
		if match(b.Stmts[i]) {
			return true
		}
	}
	seen := make([]bool, len(cfg.Blocks))
	queue := []*Block{}
	for _, s := range b.Succs {
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if seen[cur.Index] {
			continue
		}
		seen[cur.Index] = true
		for _, s := range cur.Stmts {
			if match(s) {
				return true
			}
		}
		queue = append(queue, cur.Succs...)
	}
	return false
}
