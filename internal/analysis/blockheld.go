package analysis

// blockheld — nothing blocks while a lock is held (tgsync). Scoped to
// the concurrency-infrastructure packages (Tgsync.Packages: serve, sim,
// experiments), where a blocked lock holder stalls every other
// goroutine contending for the same lock — the failure mode the tgserve
// supervisor's "never block under s.mu" discipline exists to prevent.
//
// Blocking operations, in held-lock regions found by the abstract
// interpreter in syncutil.go:
//
//   - channel send/receive outside a select;
//   - select without a default clause;
//   - sync.Cond.Wait on a condition bound to a DIFFERENT lock than the
//     (sole) one held — waiting on one's own lock is the API contract,
//     waiting with an extra lock held deadlocks the wakers;
//   - time.Sleep, WaitGroup.Wait, Once.Do;
//   - calls into packages on the Tgsync.Blocking prefix list (os, net,
//     io, bufio — I/O under a hot lock);
//   - calls to internal functions that may block, interprocedurally via
//     the SCC-fixpoint may-block summaries.
//
// Indirect calls (function values, interface methods) are not edges in
// the call graph and are skipped — the documented tgflow limitation.
// //sync:nonblocking <reason> exempts a site.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var Blockheld = &Analyzer{
	Name:         "blockheld",
	Doc:          "no channel ops, selects, sleeps, or I/O while a lock is held (serve/sim/experiments)",
	Run:          runBlockheld,
	NeedsProgram: true,
}

func runBlockheld(pass *Pass) {
	cfg := pass.Config
	if !pkgMatches(cfg.Tgsync.Packages, pass.ImportPath) {
		return
	}
	prog := pass.Program
	pkg := prog.pkgByPath(pass.ImportPath)
	if pkg == nil {
		return
	}
	sums := prog.BlockSummaries()
	anns, _ := buildSyncAnns(pass.Fset, pass.Files, "")

	report := func(pos token.Pos, what string, st *heldState) {
		posn := pass.Fset.Position(pos)
		if anns.covered("nonblocking", posn) {
			return
		}
		pass.Reportf(pos, "%s while holding %s; release first, or annotate //sync:nonblocking with why this cannot block",
			what, heldDesc(pkg, st))
	}

	for _, u := range syncUnits(pkg) {
		u := u
		walkHeld(pkg, u, &syncVisitor{
			send: func(pos token.Pos, st *heldState) {
				if len(st.held) > 0 {
					report(pos, "channel send", st)
				}
			},
			recv: func(pos token.Pos, st *heldState) {
				if len(st.held) > 0 {
					report(pos, "channel receive", st)
				}
			},
			selectAt: func(sel *ast.SelectStmt, hasDefault bool, st *heldState) {
				if !hasDefault && len(st.held) > 0 {
					report(sel.Pos(), "select without default", st)
				}
			},
			call: func(call *ast.CallExpr, st *heldState) {
				if len(st.held) == 0 {
					return
				}
				callee := calleeFunc(pkg, call)
				if callee == nil {
					return
				}
				key := FuncKey(callee)
				if key == "sync.(Cond).Wait" {
					checkCondWait(pass, pkg, anns, u, call, st)
					return
				}
				if inner := sums[key]; inner != nil {
					report(call.Pos(),
						"call to "+displayClass(key)+" which may block ("+inner.what+" at "+inner.where+")", st)
					return
				}
				if what := blockingExternal(key); what != "" {
					report(call.Pos(), what, st)
					return
				}
				if callee.Pkg() != nil && prog.Funcs[key] == nil &&
					allowedBy(cfg.Tgsync.Blocking, callee.Pkg().Path()) {
					report(call.Pos(), "blocking call to "+key, st)
				}
			},
		})
	}
}

// checkCondWait flags cond.Wait when locks other than the condition's
// own are held: Wait only releases its bound lock, so wakers blocked on
// the extras never run. An unresolvable condition binding is treated
// conservatively when any lock is held.
func checkCondWait(pass *Pass, pkg *Package, anns annIndex, u *syncUnit, call *ast.CallExpr, st *heldState) {
	posn := pass.Fset.Position(call.Pos())
	if anns.covered("nonblocking", posn) {
		return
	}
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	condClass := ""
	if sel != nil {
		condClass = condLockClass(pkg, u.name, sel.X)
	}
	extra := make([]string, 0, len(st.held))
	for c := range st.held {
		if c != condClass {
			extra = append(extra, c)
		}
	}
	if len(extra) == 0 {
		return
	}
	if condClass == "" {
		pass.Reportf(call.Pos(),
			"sync.Cond.Wait with %s held and an unresolvable condition binding; Wait only releases the condition's own lock",
			heldDesc(pkg, st))
		return
	}
	sort.Strings(extra)
	for i, c := range extra {
		extra[i] = displayClass(c)
	}
	pass.Reportf(call.Pos(),
		"sync.Cond.Wait releases only %s but %s is also held; the waker can never acquire it",
		displayClass(condClass), strings.Join(extra, ", "))
}

// condLockClass resolves the lock a sync.Cond was constructed over by
// finding the `X = sync.NewCond(&L)` assignment (or composite-literal
// value) that initializes the condition expression's object.
func condLockClass(pkg *Package, encl string, condExpr ast.Expr) string {
	var obj types.Object
	switch e := ast.Unparen(condExpr).(type) {
	case *ast.Ident:
		obj = pkg.Info.ObjectOf(e)
	case *ast.SelectorExpr:
		obj = pkg.Info.ObjectOf(e.Sel)
	}
	if obj == nil {
		return ""
	}
	class := ""
	fromNewCond := func(rhs ast.Expr) string {
		call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
		if !isCall || len(call.Args) != 1 {
			return ""
		}
		if fn := calleeFunc(pkg, call); fn == nil || fn.Pkg() == nil ||
			fn.Pkg().Path() != "sync" || fn.Name() != "NewCond" {
			return ""
		}
		arg := ast.Unparen(call.Args[0])
		if un, isUnary := arg.(*ast.UnaryExpr); isUnary && un.Op == token.AND {
			arg = ast.Unparen(un.X)
		}
		return lockClassOf(pkg, encl, arg)
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if class != "" {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					var lobj types.Object
					switch l := lhs.(type) {
					case *ast.Ident:
						lobj = pkg.Info.ObjectOf(l)
					case *ast.SelectorExpr:
						lobj = pkg.Info.ObjectOf(l.Sel)
					}
					if lobj == obj {
						if c := fromNewCond(n.Rhs[i]); c != "" {
							class = c
						}
					}
				}
			case *ast.KeyValueExpr:
				if id, isIdent := n.Key.(*ast.Ident); isIdent && pkg.Info.ObjectOf(id) == obj {
					if c := fromNewCond(n.Value); c != "" {
						class = c
					}
				}
			}
			return true
		})
	}
	return class
}

// heldDesc renders a held set for messages, earliest acquisition first.
func heldDesc(pkg *Package, st *heldState) string {
	type held struct {
		class string
		posn  token.Position
	}
	hs := make([]held, 0, len(st.held))
	for c, pos := range st.held {
		hs = append(hs, held{class: c, posn: pkg.Fset.Position(pos)})
	}
	sort.Slice(hs, func(i, j int) bool {
		if pk := posKey(hs[i].posn); pk != posKey(hs[j].posn) {
			return pk < posKey(hs[j].posn)
		}
		return hs[i].class < hs[j].class
	})
	parts := make([]string, len(hs))
	for i, h := range hs {
		parts[i] = displayClass(h.class) + " (held since " + shortPos(h.posn) + ")"
	}
	return strings.Join(parts, ", ")
}
