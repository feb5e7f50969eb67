package analysis

// syncutil.go — shared machinery for the tgsync pass family (lockorder,
// unlockpath, blockheld, golife). The four passes police the
// synchronization-lifecycle contract docs/ROBUSTNESS.md §"Locking"
// documents for the service layer: locks are acquired in one global
// order, every acquisition is released on every path, nothing blocks
// while a lock is held, and every goroutine/timer has a teardown path.
//
// This file contributes four ingredients:
//
//   - lock identity: a Lock/Unlock/RLock/RUnlock call resolved to the
//     *lock class* it operates on. A mutex struct field is keyed by the
//     owning named type ("pkg.(Job).mu"), so every instance of the type
//     shares one node in the lock graph; package-level mutexes are keyed
//     by the variable, locals by enclosing function + name.
//
//   - an abstract interpreter over function bodies that threads a
//     held-lock set through Go's structured control flow (AST-directed
//     rather than CFG-directed, because the CFG decomposes select
//     statements and the blockheld pass needs to see them whole). Loop
//     bodies are iterated to a fixpoint silently and visited once for
//     emission, so a lock carried around a loop back-edge is observed
//     without duplicate reports.
//
//   - SCC-fixpoint summaries on the tgflow call graph: which foreign
//     locks a function acquires (and which caller-held locks it is
//     guaranteed to release first), whether a function may block, and
//     whether a function contains a teardown construct.
//
//   - the //sync: annotation grammar for audited exceptions:
//
//       //sync:ordered <reason>      nested same-class acquisition is
//                                    hierarchical, not cyclic (lockorder)
//       //sync:balanced <reason>     lock ownership crosses the function
//                                    boundary by contract (unlockpath,
//                                    lockorder edge suppression)
//       //sync:nonblocking <reason>  the flagged op cannot block here
//                                    (blockheld)
//       //sync:owned <reason>        lifecycle/teardown is managed
//                                    elsewhere (golife)
//
//     A directive covers its own line and the line below, the reason is
//     mandatory, and malformed directives are findings (reported once
//     per package by lockorder, the family head) — mirroring
//     //lint:ignore.

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// ---------------------------------------------------------------------------
// //sync: annotations

const syncAnnPrefix = "//sync:"

var syncAnnKinds = map[string]bool{
	"ordered":     true,
	"balanced":    true,
	"nonblocking": true,
	"owned":       true,
}

// buildSyncAnns scans the files for //sync: directives. Malformed ones
// come back as diagnostics attributed to the given pass; lockorder
// reports them so they surface exactly once per package.
func buildSyncAnns(fset *token.FileSet, files []*ast.File, reportPass string) (annIndex, []Diagnostic) {
	return buildAnnIndex(fset, files, syncAnnPrefix, syncAnnKinds,
		"ordered, balanced, nonblocking or owned", reportPass)
}

// syncAnnCache lazily builds the program-wide annotation index: an edge
// suppressed with //sync:ordered in package B must stay suppressed when
// the lock graph is assembled for package A's report.
type syncAnnState struct {
	once sync.Once
	idx  annIndex
}

var syncAnnCache sync.Map // *Program → *syncAnnState

// syncAnns returns the //sync: index over every package of the program.
func syncAnns(prog *Program) annIndex {
	v, _ := syncAnnCache.LoadOrStore(prog, &syncAnnState{})
	st := v.(*syncAnnState)
	st.once.Do(func() {
		st.idx = make(annIndex)
		for _, pkg := range prog.Pkgs {
			idx, _ := buildSyncAnns(pkg.Fset, pkg.Files, "")
			for file, byLine := range idx {
				st.idx[file] = byLine
			}
		}
	})
	return st.idx
}

// shortPos renders a cross-reference position compactly.
func shortPos(p token.Position) string {
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// ---------------------------------------------------------------------------
// Lock identity

type lockOp int

const (
	opLock lockOp = iota
	opUnlock
	opRLock
	opRUnlock
)

// acquires/releases report which side of the pairing an op is on.
func (op lockOp) acquires() bool { return op == opLock || op == opRLock }

// read reports whether the op belongs to the shared (RLock/RUnlock) mode.
func (op lockOp) read() bool { return op == opRLock || op == opRUnlock }

// resolveLockOp recognizes a call to sync.Mutex/sync.RWMutex
// Lock/Unlock/RLock/RUnlock (including promoted embedded forms) and
// returns the lock class it operates on. TryLock/TryRLock are ignored:
// their held-ness is branch-dependent and the repo does not use them.
func resolveLockOp(pkg *Package, encl string, call *ast.CallExpr) (class string, op lockOp, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", 0, false
	}
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", 0, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", 0, false
	}
	rt := sig.Recv().Type()
	if p, isPtr := rt.(*types.Pointer); isPtr {
		rt = p.Elem()
	}
	named, isNamed := rt.(*types.Named)
	if !isNamed || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return "", 0, false
	}
	switch fn.Name() {
	case "Lock":
		op = opLock
	case "Unlock":
		op = opUnlock
	case "RLock":
		op = opRLock
	case "RUnlock":
		op = opRUnlock
	default:
		return "", 0, false
	}
	return lockClassOf(pkg, encl, ast.Unparen(sel.X)), op, true
}

// lockClassOf names the lock a receiver expression denotes. Struct
// fields are keyed by the field's owning named type so every instance
// shares a class; package-level variables by package + name; locals by
// package + enclosing function + name. Anything else falls back to the
// expression's spelling (still a stable per-package key).
func lockClassOf(pkg *Package, encl string, x ast.Expr) string {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		t := typeOf(pkg.Info, x.X)
		if p, isPtr := derefAll(t).(*types.Pointer); isPtr {
			t = p.Elem()
		} else {
			t = derefAll(t)
		}
		if named, isNamed := t.(*types.Named); isNamed && named.Obj() != nil {
			path := pkg.ImportPath
			if named.Obj().Pkg() != nil {
				path = named.Obj().Pkg().Path()
			}
			return path + ".(" + named.Obj().Name() + ")." + x.Sel.Name
		}
		return pkg.ImportPath + "." + types.ExprString(x)
	case *ast.Ident:
		if v, isVar := pkg.Info.ObjectOf(x).(*types.Var); isVar && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Path() + "." + v.Name()
			}
		}
		return pkg.ImportPath + "." + encl + "." + x.Name
	default:
		return pkg.ImportPath + "." + types.ExprString(x)
	}
}

// derefAll unwraps pointers down to the pointed-to type (one level is
// all Go produces for selector bases, but be safe).
func derefAll(t types.Type) types.Type {
	for t != nil {
		p, isPtr := t.(*types.Pointer)
		if !isPtr {
			return t
		}
		t = p.Elem()
	}
	return t
}

// displayClass trims the import-path directory off a lock class for
// messages: "thermogater/internal/serve.(Job).mu" → "serve.(Job).mu".
func displayClass(class string) string {
	if i := strings.LastIndex(class, "/"); i >= 0 {
		return class[i+1:]
	}
	return class
}

// ---------------------------------------------------------------------------
// Analysis units

// syncUnit is one body the tgsync passes analyze independently: a
// declared function/method, or a function literal (goroutine body,
// deferred closure, stored worker). Literals get a synthesized FuncDecl
// wrapper so BuildCFG and the walker treat both uniformly.
type syncUnit struct {
	name string        // enclosing declaration's name (local lock classes, messages)
	decl *ast.FuncDecl // the declaration, or a wrapper around lit.Body
	lit  *ast.FuncLit  // non-nil for literal units
}

// syncUnits enumerates every analysis unit in the package, outer bodies
// first, literals in source order.
func syncUnits(pkg *Package) []*syncUnit {
	var units []*syncUnit
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				units = append(units, &syncUnit{name: d.Name.Name, decl: d})
				units = append(units, litUnits(d.Body, d.Name.Name)...)
			case *ast.GenDecl:
				// Package-level `var handler = func() {...}` initializers.
				units = append(units, litUnits(d, "init")...)
			}
		}
	}
	return units
}

// litUnits collects every function literal under root (including nested
// ones) as its own unit.
func litUnits(root ast.Node, encl string) []*syncUnit {
	var units []*syncUnit
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, isLit := n.(*ast.FuncLit); isLit {
			units = append(units, &syncUnit{
				name: encl,
				decl: &ast.FuncDecl{Name: ast.NewIdent(encl), Body: lit.Body},
				lit:  lit,
			})
		}
		return true
	})
	return units
}

// ---------------------------------------------------------------------------
// Held-lock abstract interpretation

// heldInfo records one held lock: where it was acquired and in which
// mode.
type heldInfo struct {
	pos token.Pos
	op  lockOp
}

// heldState is the interpreter's lattice value at a program point:
//
//   - held is a MAY set (union at joins, keeping the earliest site):
//     locks that can be held here on some path. Lock-graph edges and
//     blocking-while-locked reports come from it.
//
//   - released is a MUST set (intersection at joins): foreign locks —
//     locks this unit never acquired itself — that an explicit Unlock
//     has released on every path. It models the documented handoff
//     pattern "callee releases the caller's lock before taking another"
//     (serve.classifyFailure), which would otherwise complete a
//     spurious ABBA cycle through the callee summary.
//
//   - dead marks a state below a return: joins ignore it, so a branch
//     that unlocks and returns does not pollute the fallthrough state.
type heldState struct {
	held     map[string]heldInfo
	released map[string]bool
	dead     bool
}

func newHeldState() *heldState {
	return &heldState{held: map[string]heldInfo{}, released: map[string]bool{}}
}

func (st *heldState) clone() *heldState {
	c := &heldState{
		held:     make(map[string]heldInfo, len(st.held)),
		released: make(map[string]bool, len(st.released)),
		dead:     st.dead,
	}
	for k, v := range st.held {
		c.held[k] = v
	}
	for k := range st.released {
		c.released[k] = true
	}
	return c
}

// join merges two branch states in place (a ⊔ b → a).
func (a *heldState) join(b *heldState) {
	if b == nil || b.dead {
		return
	}
	if a.dead {
		a.held, a.released, a.dead = b.held, b.released, false
		return
	}
	for k, v := range b.held {
		if cur, have := a.held[k]; !have || v.pos < cur.pos {
			a.held[k] = v
		}
	}
	for k := range a.released {
		if !b.released[k] {
			delete(a.released, k)
		}
	}
}

func (a *heldState) equal(b *heldState) bool {
	if a.dead != b.dead || len(a.held) != len(b.held) || len(a.released) != len(b.released) {
		return false
	}
	for k, v := range a.held {
		if bv, have := b.held[k]; !have || bv.pos != v.pos {
			return false
		}
	}
	for k := range a.released {
		if !b.released[k] {
			return false
		}
	}
	return true
}

// syncVisitor receives the interpreter's events. Every callback sees the
// state BEFORE the event's own effect is applied. Callbacks are only
// invoked on the emission pass (once per syntactic site), never during
// loop fixpoint probes.
type syncVisitor struct {
	acquire  func(class string, op lockOp, call *ast.CallExpr, st *heldState)
	release  func(class string, op lockOp, call *ast.CallExpr, st *heldState)
	call     func(call *ast.CallExpr, st *heldState)
	send     func(pos token.Pos, st *heldState)
	recv     func(pos token.Pos, st *heldState)
	selectAt func(sel *ast.SelectStmt, hasDefault bool, st *heldState)
}

// heldWalker threads a heldState through one unit's body.
type heldWalker struct {
	pkg  *Package
	encl string
	vis  *syncVisitor

	emit   bool // false during loop fixpoint probes
	inComm bool // suppress send/recv events for a select's comm clauses
}

// walkHeld runs the interpreter over a unit with an empty entry state
// and returns the exit state (the join over all return points is not
// tracked; callers needing per-return facts use the CFG passes).
func walkHeld(pkg *Package, u *syncUnit, vis *syncVisitor) *heldState {
	w := &heldWalker{pkg: pkg, encl: u.name, vis: vis, emit: true}
	st := newHeldState()
	w.stmtList(st, u.decl.Body.List)
	return st
}

func (w *heldWalker) stmtList(st *heldState, list []ast.Stmt) {
	for _, s := range list {
		w.stmt(st, s)
	}
}

func (w *heldWalker) stmt(st *heldState, s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.ExprStmt:
		w.expr(st, s.X)
	case *ast.SendStmt:
		w.expr(st, s.Chan)
		w.expr(st, s.Value)
		if w.emit && !w.inComm && w.vis.send != nil {
			w.vis.send(s.Arrow, st)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(st, e)
		}
		for _, e := range s.Lhs {
			w.expr(st, e)
		}
	case *ast.DeclStmt:
		if gd, isGen := s.Decl.(*ast.GenDecl); isGen {
			for _, spec := range gd.Specs {
				if vs, isVal := spec.(*ast.ValueSpec); isVal {
					for _, e := range vs.Values {
						w.expr(st, e)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(st, e)
		}
		st.dead = true
	case *ast.IncDecStmt:
		w.expr(st, s.X)
	case *ast.GoStmt:
		// The spawned body is a separate unit; argument expressions are
		// evaluated here.
		for _, a := range s.Call.Args {
			w.expr(st, a)
		}
		if _, isLit := ast.Unparen(s.Call.Fun).(*ast.FuncLit); !isLit {
			w.expr(st, s.Call.Fun)
		}
	case *ast.DeferStmt:
		// A deferred matching Unlock leaves the lock held for the rest of
		// the body — exactly what the walker should model — so a deferred
		// lock op has no effect on the state. Other deferred calls run
		// after every tracked region and are ignored.
		for _, a := range s.Call.Args {
			w.expr(st, a)
		}
	case *ast.BlockStmt:
		w.stmtList(st, s.List)
	case *ast.IfStmt:
		w.stmt(st, s.Init)
		w.expr(st, s.Cond)
		then := st.clone()
		w.stmtList(then, s.Body.List)
		els := st.clone()
		w.stmt(els, s.Else)
		*st = *then
		st.join(els)
	case *ast.SwitchStmt:
		w.stmt(st, s.Init)
		w.expr(st, s.Tag)
		w.caseClauses(st, s.Body.List, func(cc *ast.CaseClause, br *heldState) {
			for _, e := range cc.List {
				w.expr(br, e)
			}
		})
	case *ast.TypeSwitchStmt:
		w.stmt(st, s.Init)
		w.stmt(st, s.Assign)
		w.caseClauses(st, s.Body.List, nil)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, isComm := cl.(*ast.CommClause); isComm && cc.Comm == nil {
				hasDefault = true
			}
		}
		if w.emit && w.vis.selectAt != nil {
			w.vis.selectAt(s, hasDefault, st)
		}
		var out *heldState
		for _, cl := range s.Body.List {
			cc, isComm := cl.(*ast.CommClause)
			if !isComm {
				continue
			}
			br := st.clone()
			if cc.Comm != nil {
				w.inComm = true
				w.stmt(br, cc.Comm)
				w.inComm = false
			}
			w.stmtList(br, cc.Body)
			if out == nil {
				out = br
			} else {
				out.join(br)
			}
		}
		if out != nil {
			*st = *out
		}
	case *ast.ForStmt:
		w.stmt(st, s.Init)
		w.loop(st, func(body *heldState) {
			w.expr(body, s.Cond)
			w.stmtList(body, s.Body.List)
			w.stmt(body, s.Post)
		})
	case *ast.RangeStmt:
		w.expr(st, s.X)
		w.loop(st, func(body *heldState) {
			w.stmtList(body, s.Body.List)
		})
	case *ast.LabeledStmt:
		w.stmt(st, s.Stmt)
	case *ast.BranchStmt:
		// break/continue/goto: approximated as fallthrough — the loop
		// fixpoint absorbs their effects into the loop-invariant state.
	default:
		// EmptyStmt etc.
	}
}

// caseClauses joins the branch states of a switch body; a missing
// default contributes the fallthrough state.
func (w *heldWalker) caseClauses(st *heldState, clauses []ast.Stmt, pre func(*ast.CaseClause, *heldState)) {
	hasDefault := false
	var out *heldState
	for _, cl := range clauses {
		cc, isCase := cl.(*ast.CaseClause)
		if !isCase {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		br := st.clone()
		if pre != nil {
			pre(cc, br)
		}
		w.stmtList(br, cc.Body)
		if out == nil {
			out = br
		} else {
			out.join(br)
		}
	}
	if out == nil {
		return
	}
	if !hasDefault {
		out.join(st)
	}
	*st = *out
}

// loop iterates body to a fixpoint with emission off, then runs one
// visible pass from the converged entry state. The loop-invariant entry
// is also the exit approximation (a conditional loop may run zero
// times; a `for {}` only exits through break, whose state the fixpoint
// already folded in).
func (w *heldWalker) loop(st *heldState, body func(*heldState)) {
	entry := st.clone()
	saved := w.emit
	w.emit = false
	for i := 0; i < 8; i++ {
		probe := entry.clone()
		body(probe)
		next := entry.clone()
		next.join(probe)
		if next.equal(entry) {
			break
		}
		entry = next
	}
	w.emit = saved
	if w.emit {
		final := entry.clone()
		body(final)
	}
	*st = *entry
}

// expr walks an expression for lock operations, calls, and channel
// receives. Nested function literals are separate units and skipped.
func (w *heldWalker) expr(st *heldState, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			w.callExpr(st, n)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && w.emit && !w.inComm && w.vis.recv != nil {
				w.vis.recv(n.OpPos, st)
			}
		}
		return true
	})
}

func (w *heldWalker) callExpr(st *heldState, call *ast.CallExpr) {
	if class, op, isLockOp := resolveLockOp(w.pkg, w.encl, call); isLockOp {
		if op.acquires() {
			if w.emit && w.vis.acquire != nil {
				w.vis.acquire(class, op, call, st)
			}
			st.held[class] = heldInfo{pos: call.Pos(), op: op}
			delete(st.released, class)
		} else {
			if w.emit && w.vis.release != nil {
				w.vis.release(class, op, call, st)
			}
			if _, have := st.held[class]; have {
				delete(st.held, class)
			} else {
				// Releasing a lock this unit never acquired: the caller
				// handed it over. Record the guaranteed release so callee
				// summaries do not conjure a phantom ordering edge.
				st.released[class] = true
			}
		}
		return
	}
	if w.emit && w.vis.call != nil {
		w.vis.call(call, st)
	}
}

// ---------------------------------------------------------------------------
// Lock-acquisition summaries (lockorder)

// lockAcq describes one lock class a function may acquire, directly or
// transitively: where (in the summarized function), through which chain,
// and which caller-held classes are guaranteed released before the
// acquisition on every path.
type lockAcq struct {
	where    string          // formatted site in the summarized function
	via      string          // " via <chain>" suffix for transitive acquisitions
	released map[string]bool // MUST-released foreign classes before this acquisition
}

// lockSummary maps acquired lock class → acquisition record.
type lockSummary map[string]*lockAcq

// LockSummaries computes (once) the per-function lock-acquisition table,
// keyed by FuncKey, bottom-up over the call-graph SCCs.
func (p *Program) LockSummaries() map[string]lockSummary {
	p.lockOnce.Do(func() {
		p.lockSums = make(map[string]lockSummary, len(p.Funcs))
		for key := range p.Funcs {
			p.lockSums[key] = lockSummary{}
		}
		forEachSCCFixpoint(p, func(fn *FlowFunc) bool {
			return updateLockSummary(p, fn)
		})
	})
	return p.lockSums
}

// mergeAcq folds one acquisition fact into a summary. The acquisition
// set only grows and the released sets only shrink, so the SCC fixpoint
// terminates.
func mergeAcq(sum lockSummary, class, where, via string, released map[string]bool) bool {
	cur := sum[class]
	if cur == nil {
		rel := make(map[string]bool, len(released))
		for k := range released {
			rel[k] = true
		}
		sum[class] = &lockAcq{where: where, via: via, released: rel}
		return true
	}
	changed := false
	for k := range cur.released {
		if !released[k] {
			delete(cur.released, k)
			changed = true
		}
	}
	return changed
}

func updateLockSummary(p *Program, fn *FlowFunc) bool {
	sum := p.lockSums[fn.Key]
	changed := false
	u := &syncUnit{name: fn.Decl.Name.Name, decl: fn.Decl}
	walkHeld(fn.Pkg, u, &syncVisitor{
		acquire: func(class string, op lockOp, call *ast.CallExpr, st *heldState) {
			if mergeAcq(sum, class, shortPos(fn.Pkg.Fset.Position(call.Pos())), "", st.released) {
				changed = true
			}
		},
		call: func(call *ast.CallExpr, st *heldState) {
			callee := calleeFunc(fn.Pkg, call)
			if callee == nil {
				return
			}
			cs := p.lockSums[FuncKey(callee)]
			if len(cs) == 0 {
				return
			}
			where := shortPos(fn.Pkg.Fset.Position(call.Pos()))
			for class, acq := range cs {
				rel := make(map[string]bool, len(st.released)+len(acq.released))
				for k := range st.released {
					rel[k] = true
				}
				for k := range acq.released {
					rel[k] = true
				}
				via := " via " + displayClass(FuncKey(callee))
				if acq.via != "" {
					via = acq.via
				}
				if mergeAcq(sum, class, where, via, rel) {
					changed = true
				}
			}
		},
	})
	return changed
}

// ---------------------------------------------------------------------------
// May-block summaries (blockheld)

// blockFact names the first blocking operation found in a function
// (directly or through a callee chain), with a pre-formatted position —
// token.Pos is not portable across packages' file sets.
type blockFact struct {
	what  string
	where string
}

// BlockSummaries computes (once) which functions may block, keyed by
// FuncKey. External callees are classified by the Tgsync.Blocking
// import-path prefixes plus the fixed list in blockingExternal.
func (p *Program) BlockSummaries() map[string]*blockFact {
	p.blockOnce.Do(func() {
		p.blockSums = make(map[string]*blockFact, len(p.Funcs))
		forEachSCCFixpoint(p, func(fn *FlowFunc) bool {
			if p.blockSums[fn.Key] != nil {
				return false // already known to block; facts never retract
			}
			fact := findBlockFact(p, fn)
			if fact == nil {
				return false
			}
			p.blockSums[fn.Key] = fact
			return true
		})
	})
	return p.blockSums
}

// blockingExternal classifies well-known external callees that block
// regardless of import-path configuration.
func blockingExternal(key string) string {
	switch key {
	case "time.Sleep", "sync.(WaitGroup).Wait", "sync.(Cond).Wait", "sync.(Once).Do":
		return "calls " + key
	}
	return ""
}

func findBlockFact(p *Program, fn *FlowFunc) *blockFact {
	var fact *blockFact
	record := func(what string, pos token.Pos) {
		if fact == nil {
			fact = &blockFact{what: what, where: shortPos(fn.Pkg.Fset.Position(pos))}
		}
	}
	u := &syncUnit{name: fn.Decl.Name.Name, decl: fn.Decl}
	walkHeld(fn.Pkg, u, &syncVisitor{
		send: func(pos token.Pos, st *heldState) { record("channel send", pos) },
		recv: func(pos token.Pos, st *heldState) { record("channel receive", pos) },
		selectAt: func(sel *ast.SelectStmt, hasDefault bool, st *heldState) {
			if !hasDefault {
				record("select without default", sel.Pos())
			}
		},
		call: func(call *ast.CallExpr, st *heldState) {
			callee := calleeFunc(fn.Pkg, call)
			if callee == nil {
				return
			}
			key := FuncKey(callee)
			if inner := p.blockSums[key]; inner != nil {
				record("calls "+displayClass(key)+" ("+inner.what+" at "+inner.where+")", call.Pos())
				return
			}
			if what := blockingExternal(key); what != "" {
				record(what, call.Pos())
				return
			}
			if callee.Pkg() != nil && p.Funcs[key] == nil &&
				allowedBy(p.Config.Tgsync.Blocking, callee.Pkg().Path()) {
				record("calls "+key, call.Pos())
			}
		},
	})
	return fact
}

// ---------------------------------------------------------------------------
// Teardown summaries (golife)

// TeardownSummaries computes (once) which functions contain a teardown
// construct — a receive/select on a stop-named channel or ctx.Done(), or
// a range over a channel — directly or through an internal callee. A
// forever-loop goroutine body whose loop reaches one of these has a
// shutdown path.
func (p *Program) TeardownSummaries() map[string]bool {
	p.tearOnce.Do(func() {
		p.tearSums = make(map[string]bool, len(p.Funcs))
		forEachSCCFixpoint(p, func(fn *FlowFunc) bool {
			if p.tearSums[fn.Key] {
				return false
			}
			if hasTeardown(p, fn.Pkg, fn.Decl.Body, p.tearSums) {
				p.tearSums[fn.Key] = true
				return true
			}
			return false
		})
	})
	return p.tearSums
}

// hasTeardown scans one body (nested literals excluded: they run on
// their own goroutines) for a teardown construct. sums may be nil for a
// purely syntactic scan.
func hasTeardown(p *Program, pkg *Package, body ast.Node, sums map[string]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isTeardownChan(p.Config, n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if t := typeOf(pkg.Info, n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if sums == nil {
				return true
			}
			if callee := calleeFunc(pkg, n); callee != nil && sums[FuncKey(callee)] {
				found = true
			}
		}
		return !found
	})
	return found
}

// isTeardownChan recognizes stop/shutdown channel expressions: any
// *.Done() call (context.Context, serve.Job), or a channel whose
// terminal name contains a configured stop fragment.
func isTeardownChan(cfg *Config, e ast.Expr) bool {
	e = ast.Unparen(e)
	if call, isCall := e.(*ast.CallExpr); isCall {
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel && sel.Sel.Name == "Done" {
			return true
		}
		return false
	}
	var name string
	switch e := e.(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return false
	}
	name = strings.ToLower(name)
	for _, frag := range cfg.Tgsync.StopNames {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Post-dominance (unlockpath, golife)

// callPostdominates reports whether every path from stmt (a statement of
// cfg) to the exit encounters a statement for which match returns true,
// or a matching call appears later in stmt's own block. It is the
// cacheflush flush-postdominance check generalized to an arbitrary
// statement predicate.
func callPostdominates(cfg *CFG, stmt ast.Stmt, match func(ast.Stmt) bool) bool {
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

	must := make([]bool, len(cfg.Blocks))
	has := make([]bool, len(cfg.Blocks))
	for i, b := range cfg.Blocks {
		must[i] = true
		for _, s := range b.Stmts {
			if match(s) {
				has[i] = true
			}
		}
	}
	must[cfg.Exit().Index] = false
	for changed := true; changed; {
		changed = false
		for i, b := range cfg.Blocks {
			if has[i] || !must[i] {
				continue
			}
			ok := len(b.Succs) > 0 && b.Index != cfg.Exit().Index
			for _, s := range b.Succs {
				if !must[s.Index] {
					ok = false
				}
			}
			if !ok {
				must[i] = false
				changed = true
			}
		}
	}

	b := cfg.Blocks[blockOf]
	for i := idxOf + 1; i < len(b.Stmts); i++ {
		if match(b.Stmts[i]) {
			return true
		}
	}
	if len(b.Succs) == 0 {
		return false
	}
	for _, s := range b.Succs {
		if !must[s.Index] {
			return false
		}
	}
	return true
}

// stmtContains reports whether the statement contains a node for which
// pred holds, not descending into nested function literals.
func stmtContains(s ast.Stmt, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if n != nil && pred(n) {
			found = true
		}
		return !found
	})
	return found
}

// enclosingStmt finds the statement of the CFG that lexically contains
// pos, preferring the innermost (smallest) match.
func enclosingStmt(cfg *CFG, pos token.Pos) ast.Stmt {
	var best ast.Stmt
	for _, b := range cfg.Blocks {
		for _, s := range b.Stmts {
			if s.Pos() <= pos && pos < s.End() {
				if best == nil || (s.Pos() >= best.Pos() && s.End() <= best.End()) {
					best = s
				}
			}
		}
	}
	return best
}

// posKey orders formatted positions lexicographically by (file, line,
// col) for deterministic anchoring; file names compare as strings.
func posKey(p token.Position) string {
	return filepath.Base(p.Filename) + ":" +
		pad(p.Line) + ":" + pad(p.Column)
}

func pad(n int) string {
	s := strconv.Itoa(n)
	for len(s) < 8 {
		s = "0" + s
	}
	return s
}
