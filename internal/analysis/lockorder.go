package analysis

// lockorder — whole-repo lock-acquisition-order analysis (tgsync).
//
// The pass interprets every function body with the held-lock walker
// (syncutil.go), producing an edge A → B whenever lock class B is
// acquired — directly or through a callee's lock summary — while A is
// held. Edges over the analyzed package's dependency closure form the
// lock-acquisition graph; a strongly connected component with two or
// more classes (or a self-loop) is an ABBA deadlock candidate and is
// reported once, anchored at its lexically smallest edge, with the
// acquisition chain of every direction in the cycle.
//
// This is the pass that would have caught PR 9's requeue inversion:
// every admission path took Supervisor.mu before Job.mu, while requeue
// re-entered Supervisor.mu (through the sequence allocator) with Job.mu
// held. The documented handoff pattern — a callee releasing the
// caller's lock before taking another — is modeled by the summaries'
// must-released sets and does not produce edges. No site in the service
// uses it today; the lockorder and unlockpath fixtures pin it.
//
// Exemptions: //sync:ordered <reason> on an acquisition or call site
// drops its edges (hierarchical same-class nesting such as a parent
// lock taken before its child's). Malformed //sync: directives of any
// kind are reported here, once per package, for the whole family.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

var Lockorder = &Analyzer{
	Name:         "lockorder",
	Doc:          "detect lock-acquisition-order cycles (ABBA deadlocks) across the repo",
	Run:          runLockorder,
	NeedsProgram: true,
}

// lockEdge is one observed ordering: `to` acquired while `from` held.
type lockEdge struct {
	from, to string
	pkgPath  string
	pos      token.Pos      // site in its owning package's file set
	posn     token.Position // the same, resolved
	heldAt   string         // where `from` was acquired (short form)
	via      string         // " via <callee>" for summary-mediated edges
}

func runLockorder(pass *Pass) {
	// Malformed //sync: directives surface here, once per package.
	_, bad := buildSyncAnns(pass.Fset, pass.Files, "lockorder")
	pass.diags = append(pass.diags, bad...)

	prog := pass.Program
	pkg := prog.pkgByPath(pass.ImportPath)
	if pkg == nil {
		return
	}

	// The graph is assembled from the package's dependency closure: Go
	// imports are acyclic, so a cross-package cycle is always visible
	// from the package owning the downstream edge, and a package's
	// findings never depend on the packages that import it.
	sums := prog.LockSummaries()
	anns := syncAnns(prog)
	closure := depClosure(pkg)
	var edges []*lockEdge
	for _, dep := range prog.Pkgs {
		if dep != pkg && !closure[dep.ImportPath] {
			continue
		}
		collectLockEdges(prog, dep, sums, anns, &edges)
	}
	if len(edges) == 0 {
		return
	}

	// Keep the lexically smallest edge per direction.
	best := map[[2]string]*lockEdge{}
	for _, e := range edges {
		k := [2]string{e.from, e.to}
		if cur := best[k]; cur == nil || posKey(e.posn) < posKey(cur.posn) {
			best[k] = e
		}
	}

	for _, scc := range lockSCCs(best) {
		reportLockCycle(pass, scc, best)
	}
}

// collectLockEdges walks one package's units and appends every ordering
// edge observed in them.
func collectLockEdges(prog *Program, dep *Package, sums map[string]lockSummary, anns annIndex, edges *[]*lockEdge) {
	for _, u := range syncUnits(dep) {
		walkHeld(dep, u, &syncVisitor{
			acquire: func(class string, op lockOp, call *ast.CallExpr, st *heldState) {
				posn := dep.Fset.Position(call.Pos())
				if anns.covered("ordered", posn) {
					return
				}
				for held, info := range st.held {
					*edges = append(*edges, &lockEdge{
						from: held, to: class, pkgPath: dep.ImportPath,
						pos: call.Pos(), posn: posn,
						heldAt: shortPos(dep.Fset.Position(info.pos)),
					})
				}
			},
			call: func(call *ast.CallExpr, st *heldState) {
				if len(st.held) == 0 {
					return
				}
				callee := calleeFunc(dep, call)
				if callee == nil {
					return
				}
				cs := sums[FuncKey(callee)]
				if len(cs) == 0 {
					return
				}
				posn := dep.Fset.Position(call.Pos())
				if anns.covered("ordered", posn) {
					return
				}
				for class, acq := range cs {
					for held, info := range st.held {
						if acq.released[held] || st.released[held] {
							continue // handoff: the held lock is released first
						}
						*edges = append(*edges, &lockEdge{
							from: held, to: class, pkgPath: dep.ImportPath,
							pos: call.Pos(), posn: posn,
							heldAt: shortPos(dep.Fset.Position(info.pos)),
							via:    " via " + displayClass(FuncKey(callee)),
						})
					}
				}
			},
		})
	}
}

// lockSCCs runs Tarjan over the edge map's lock classes and returns the
// components that contain a cycle (≥2 nodes, or a self-loop), each as a
// sorted class list.
func lockSCCs(best map[[2]string]*lockEdge) [][]string {
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for k := range best {
		adj[k[0]] = append(adj[k[0]], k[1])
		nodes[k[0]], nodes[k[1]] = true, true
	}
	keys := make([]string, 0, len(nodes))
	for n := range nodes {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	for _, succs := range adj {
		sort.Strings(succs)
	}

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var out [][]string

	var connect func(v string)
	connect = func(v string) {
		index[v], low[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				connect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			if len(scc) > 1 || best[[2]string{v, v}] != nil {
				out = append(out, scc)
			}
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			connect(k)
		}
	}
	return out
}

// reportLockCycle emits one diagnostic for a cyclic component, anchored
// at its lexically smallest internal edge — only when that edge belongs
// to the package under analysis, so a cycle shared by several packages'
// closures is reported exactly once repo-wide.
func reportLockCycle(pass *Pass, scc []string, best map[[2]string]*lockEdge) {
	in := map[string]bool{}
	for _, c := range scc {
		in[c] = true
	}
	var internal []*lockEdge
	for k, e := range best {
		if in[k[0]] && in[k[1]] {
			internal = append(internal, e)
		}
	}
	sort.Slice(internal, func(i, j int) bool {
		a, b := internal[i], internal[j]
		if pk := posKey(a.posn); pk != posKey(b.posn) {
			return pk < posKey(b.posn)
		}
		return a.from+a.to < b.from+b.to
	})
	anchor := internal[0]
	if anchor.pkgPath != pass.ImportPath {
		return
	}

	if len(scc) == 1 {
		c := displayClass(scc[0])
		pass.Reportf(anchor.pos,
			"lock-order cycle: %s is acquired at %s%s while an instance is already held (since %s); nested same-class locking needs a //sync:ordered annotation",
			c, shortPos(anchor.posn), anchor.via, anchor.heldAt)
		return
	}

	var chains []string
	for _, e := range internal {
		chains = append(chains, fmt.Sprintf("%s -> %s (%s held since %s, %s acquired at %s%s)",
			displayClass(e.from), displayClass(e.to),
			displayClass(e.from), e.heldAt,
			displayClass(e.to), shortPos(e.posn), e.via))
	}
	names := make([]string, len(scc))
	for i, c := range scc {
		names[i] = displayClass(c)
	}
	pass.Reportf(anchor.pos, "lock-order cycle between %s: %s",
		strings.Join(names, " and "), strings.Join(chains, "; "))
}
