package analysis

// unlockpath — every Lock/RLock must be post-dominated by its matching
// Unlock/RUnlock (or covered by a deferred one) on all paths to return
// (tgsync). The check is purely local: each function or function
// literal is one unit, analyzed over its own CFG with the same
// greatest-fixpoint must-analysis cacheflush uses for flush calls.
//
// Also reported here:
//
//   - double unlock: a lock released both by defer and explicitly on
//     the same single acquisition;
//   - mode mismatch: RLock paired with Unlock (or Lock with RUnlock);
//   - orphan release: an Unlock in a unit that never acquires the lock —
//     the cross-function handoff pattern — unless //sync:balanced
//     documents the ownership transfer. The same annotation exempts an
//     acquisition whose release lives in a callee.
//
// A `defer func() { ...; mu.Unlock() }()` literal counts as a deferred
// unlock of the enclosing function, not as an orphan in the literal.

import (
	"go/ast"
)

var Unlockpath = &Analyzer{
	Name: "unlockpath",
	Doc:  "every Lock/RLock is released by the matching Unlock on all paths to return",
	Run:  runUnlockpath,
}

// lockEvent is one lock-op call observed in a unit.
type lockEvent struct {
	class    string
	op       lockOp
	call     *ast.CallExpr
	deferred bool
}

func runUnlockpath(pass *Pass) {
	anns, _ := buildSyncAnns(pass.Fset, pass.Files, "")
	pkg := &Package{
		ImportPath: pass.ImportPath,
		Fset:       pass.Fset,
		Files:      pass.Files,
		Types:      pass.Pkg,
		Info:       pass.Info,
	}

	// Literals spelled `defer func() { ... }()` release on the way out of
	// their ENCLOSING function; collect them so their unlocks attribute
	// correctly.
	deferLits := map[*ast.FuncLit]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if d, isDefer := n.(*ast.DeferStmt); isDefer {
				if lit, isLit := ast.Unparen(d.Call.Fun).(*ast.FuncLit); isLit {
					deferLits[lit] = true
				}
			}
			return true
		})
	}

	for _, u := range syncUnits(pkg) {
		if u.lit != nil && deferLits[u.lit] {
			continue // owned by the enclosing unit's defer set
		}
		checkUnit(pass, pkg, anns, u, deferLits)
	}
}

// collectLockEvents gathers the unit's lock-op calls: direct statements,
// `defer mu.Unlock()` forms, and lock ops inside defer-wrapped literals
// (deferred, from the unit's perspective). Other nested literals are
// separate units and skipped.
func collectLockEvents(pkg *Package, u *syncUnit, deferLits map[*ast.FuncLit]bool) []*lockEvent {
	var events []*lockEvent
	var scan func(n ast.Node, deferred bool)
	scan = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if lit, isLit := ast.Unparen(n.Call.Fun).(*ast.FuncLit); isLit {
					scan(lit.Body, true)
					return false
				}
				if class, op, isOp := resolveLockOp(pkg, u.name, n.Call); isOp {
					events = append(events, &lockEvent{class: class, op: op, call: n.Call, deferred: true})
				}
				return false
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				return false // the spawned body is its own unit
			case *ast.CallExpr:
				if class, op, isOp := resolveLockOp(pkg, u.name, n); isOp {
					events = append(events, &lockEvent{class: class, op: op, call: n, deferred: deferred})
				}
			}
			return true
		})
	}
	scan(u.decl.Body, false)
	return events
}

func checkUnit(pass *Pass, pkg *Package, anns annIndex, u *syncUnit, deferLits map[*ast.FuncLit]bool) {
	events := collectLockEvents(pkg, u, deferLits)
	if len(events) == 0 {
		return
	}

	// Per-class/mode tallies.
	type tally struct{ acquires, deferRel, explRel []*lockEvent }
	acc := map[string]*tally{}
	get := func(class string, read bool) *tally {
		k := class
		if read {
			k += "\x00r"
		}
		t := acc[k]
		if t == nil {
			t = &tally{}
			acc[k] = t
		}
		return t
	}
	hasAcquire := map[string]bool{}     // any mode
	hasAcquireMode := map[string]bool{} // class+mode key
	for _, e := range events {
		if e.op.acquires() {
			get(e.class, e.op.read()).acquires = append(get(e.class, e.op.read()).acquires, e)
			hasAcquire[e.class] = true
			hasAcquireMode[modeKey(e.class, e.op.read())] = true
		} else if e.deferred {
			get(e.class, e.op.read()).deferRel = append(get(e.class, e.op.read()).deferRel, e)
		} else {
			get(e.class, e.op.read()).explRel = append(get(e.class, e.op.read()).explRel, e)
		}
	}

	var cfg *CFG
	getCFG := func() *CFG {
		if cfg == nil {
			cfg = BuildCFG(u.decl)
		}
		return cfg
	}

	for _, e := range events {
		posn := pass.Fset.Position(e.call.Pos())
		t := get(e.class, e.op.read())
		verb, relName := "locked", "Unlock"
		if e.op.read() {
			verb, relName = "read-locked", "RUnlock"
		}
		switch {
		case e.op.acquires():
			if anns.covered("balanced", posn) {
				continue
			}
			if len(t.deferRel) > 0 {
				// Covered by defer; a lone acquisition that is ALSO released
				// explicitly runs the release twice.
				if len(t.acquires) == 1 && len(t.explRel) > 0 {
					pass.Reportf(t.explRel[0].call.Pos(),
						"%s is released both explicitly and by defer for a single %s (double unlock)",
						displayClass(e.class), acquireName(e.op))
				}
				continue
			}
			match := func(s ast.Stmt) bool {
				return stmtContains(s, func(n ast.Node) bool {
					call, isCall := n.(*ast.CallExpr)
					if !isCall {
						return false
					}
					class, op, isOp := resolveLockOp(pkg, u.name, call)
					return isOp && class == e.class && !op.acquires() && op.read() == e.op.read()
				})
			}
			stmt := enclosingStmt(getCFG(), e.call.Pos())
			if stmt == nil || !callPostdominates(getCFG(), stmt, match) {
				pass.Reportf(e.call.Pos(),
					"%s is %s here but not released on every path to return (missing %s or defer; //sync:balanced if a callee releases it)",
					displayClass(e.class), verb, relName)
			}
		case !e.op.acquires():
			if hasAcquireMode[modeKey(e.class, e.op.read())] {
				continue // pairing checked from the acquisition side
			}
			if hasAcquire[e.class] {
				other := "Lock"
				if !e.op.read() {
					other = "RLock"
				}
				pass.Reportf(e.call.Pos(),
					"%s is released with %s but this function acquires it with %s (lock-mode mismatch)",
					displayClass(e.class), relName, other)
				continue
			}
			if anns.covered("balanced", posn) {
				continue
			}
			pass.Reportf(e.call.Pos(),
				"%s is released here but this function never acquires it; annotate //sync:balanced if lock ownership is handed off by contract",
				displayClass(e.class))
		}
	}
}

func modeKey(class string, read bool) string {
	if read {
		return class + "\x00r"
	}
	return class
}

func acquireName(op lockOp) string {
	if op.read() {
		return "RLock"
	}
	return "Lock"
}
