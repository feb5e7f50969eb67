package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Nanflow tracks NaN taint from its birthplaces to the simulator's
// persistent state. Sources: calls whose result can be NaN with finite
// inputs (math.Log/Sqrt/Pow/Asin/Acos/Mod/..., math.NaN itself,
// strconv.ParseFloat — a trace file containing the literal "NaN" parses
// without error), and unchecked float division (0/0). Sinks: writes to
// struct fields of types declared in the state-bearing packages
// (Config.Nanflow.SinkPackages — thermal, pdn, vr, sim). A tainted
// value reaching a sink without an intervening guard — math.IsNaN /
// math.IsInf, the x != x idiom, or any call whose name contains a guard
// fragment (validate, clamp, sanitize, finite, ...) — is reported.
//
// Taint crosses call boundaries through summaries (summary.go): each
// function records, per result, whether it can introduce NaN itself and
// which parameters flow into it, plus which parameters it stores into a
// sink unguarded — so the caller of `store(x)` is flagged when x is
// tainted even though the field write is in the callee. Propagation is
// a forward bitmask dataflow over the CFG: bit 0 is "may be NaN", bit
// i+1 "derived from parameter i" (what the summaries read off return
// statements and sink writes).
//
// Deliberate noise control, documented in docs/STATIC_ANALYSIS.md:
// division taints only when the divisor is a parameter or local that is
// never compared or validated in the function (struct-field divisors
// are trusted as construction-time-validated configuration), guards are
// flow-insensitive (a guard anywhere in the function clears the
// object), and indirect calls propagate but never introduce taint.
var Nanflow = &Analyzer{
	Name:         "nanflow",
	Doc:          "tracks NaN taint from unchecked sources into persistent simulator state",
	Run:          runNanflow,
	NeedsProgram: true,
}

// Taint masks: bit 0 = may be NaN; bit i+1 = depends on parameter i.
const taintNaN uint64 = 1

func paramBit(i int) uint64 {
	if i >= 62 {
		return 0
	}
	return 1 << (uint(i) + 1)
}

// externalNaNSources are body-less callees whose result may be NaN with
// clean (finite, non-NaN) arguments.
var externalNaNSources = map[string]string{
	"math.Log":           "math.Log of a non-positive value",
	"math.Log2":          "math.Log2 of a non-positive value",
	"math.Log10":         "math.Log10 of a non-positive value",
	"math.Log1p":         "math.Log1p below -1",
	"math.Sqrt":          "math.Sqrt of a negative value",
	"math.Pow":           "math.Pow outside its real domain",
	"math.Asin":          "math.Asin outside [-1,1]",
	"math.Acos":          "math.Acos outside [-1,1]",
	"math.Mod":           "math.Mod with a zero divisor",
	"math.Remainder":     "math.Remainder with a zero divisor",
	"math.NaN":           "math.NaN",
	"strconv.ParseFloat": `strconv.ParseFloat (the input "NaN" parses without error)`,
}

// externalGuards are body-less callees whose boolean result constitutes
// a finiteness check; their float results (none) are clean and their
// arguments become guarded.
var externalGuards = map[string]bool{
	"math.IsNaN": true,
	"math.IsInf": true,
}

// taintEnv maps objects (locals, params, fields-as-coarse-cells) to
// taint masks.
type taintEnv map[types.Object]uint64

func cloneTaintEnv(e taintEnv) taintEnv {
	c := make(taintEnv, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

func joinTaintEnv(dst, src taintEnv) (taintEnv, bool) {
	changed := false
	for k, sv := range src {
		if dst[k]|sv != dst[k] {
			dst[k] |= sv
			changed = true
		}
	}
	return dst, changed
}

// nanFlow analyzes one function.
type nanFlow struct {
	pkg  *Package
	prog *Program
	cfg  *Config
	sums map[string]*taintSummary
	fn   *FlowFunc

	// guarded objects had a NaN guard applied somewhere in the function;
	// compared objects appear in any comparison (suppresses the
	// unchecked-division source only).
	guarded  map[types.Object]bool
	compared map[types.Object]bool

	// cause remembers, per object, a human-readable description of the
	// first taint source that reached it.
	cause map[types.Object]string

	pass *Pass         // nil in summary mode
	sum  *taintSummary // non-nil in summary mode
}

// rootObj resolves the variable "cell" an expression reads or writes:
// the identifier's object, a selector's field object, or the root of an
// index expression.
func (n *nanFlow) rootObj(e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return n.pkg.Info.ObjectOf(e)
	case *ast.SelectorExpr:
		return n.pkg.Info.ObjectOf(e.Sel)
	case *ast.IndexExpr:
		return n.rootObj(e.X)
	case *ast.StarExpr:
		return n.rootObj(e.X)
	}
	return nil
}

// collectGuards scans the whole body once for guard applications and
// comparisons. Guards are flow-insensitive by design: a function that
// checks IsNaN(x) anywhere is treated as owning x's finiteness.
func (n *nanFlow) collectGuards(body ast.Node) {
	n.guarded = map[types.Object]bool{}
	n.compared = map[types.Object]bool{}
	ast.Inspect(body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			name, ext := n.calleeNames(node)
			if externalGuards[ext] || n.cfg.nanflowGuardName(name) {
				for _, a := range node.Args {
					if o := n.rootObj(a); o != nil {
						n.guarded[o] = true
					}
				}
				// A method guard (cfg.Validate()) also guards its receiver.
				if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok {
					if o := n.rootObj(sel.X); o != nil {
						n.guarded[o] = true
					}
				}
			}
		case *ast.BinaryExpr:
			switch node.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				lo, ro := n.rootObj(node.X), n.rootObj(node.Y)
				if lo != nil {
					n.compared[lo] = true
				}
				if ro != nil {
					n.compared[ro] = true
				}
				// The x != x NaN idiom is a real guard.
				if node.Op == token.NEQ && lo != nil && lo == ro {
					n.guarded[lo] = true
				}
			}
		}
		return true
	})
}

// calleeNames returns the callee's bare name and its canonical key
// ("math.Log") when resolvable.
func (n *nanFlow) calleeNames(call *ast.CallExpr) (bare, key string) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		bare = fun.Name
	case *ast.SelectorExpr:
		bare = fun.Sel.Name
	}
	if fn := calleeFunc(n.pkg, call); fn != nil {
		key = FuncKey(fn)
	}
	return bare, key
}

// taintOf computes the taint mask of an expression.
func (n *nanFlow) taintOf(env taintEnv, e ast.Expr) uint64 {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := n.pkg.Info.ObjectOf(e)
		if obj == nil || n.guarded[obj] {
			return 0
		}
		return env[obj]
	case *ast.SelectorExpr:
		obj := n.pkg.Info.ObjectOf(e.Sel)
		if obj == nil || n.guarded[obj] {
			return 0
		}
		return env[obj]
	case *ast.IndexExpr:
		return n.taintOf(env, e.X)
	case *ast.StarExpr:
		return n.taintOf(env, e.X)
	case *ast.CallExpr:
		ts := n.callResultTaints(env, e)
		var t uint64
		for _, rt := range ts {
			t |= rt
		}
		return t
	case *ast.BinaryExpr:
		t := n.taintOf(env, e.X) | n.taintOf(env, e.Y)
		if e.Op == token.QUO && n.uncheckedDivision(e) {
			t |= taintNaN
			n.noteCause(nil, "unchecked division at this expression")
		}
		return t
	case *ast.UnaryExpr:
		return n.taintOf(env, e.X)
	case *ast.CompositeLit:
		var t uint64
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				t |= n.taintOf(env, kv.Value)
			} else {
				t |= n.taintOf(env, elt)
			}
		}
		return t
	}
	return 0
}

// uncheckedDivision reports whether a float division can produce NaN
// under this pass's noise rules: the divisor is not a constant, not a
// trusted struct field, and its root object is never compared, guarded,
// or validated in the function.
func (n *nanFlow) uncheckedDivision(e *ast.BinaryExpr) bool {
	if !isFloatType(typeOf(n.pkg.Info, e)) {
		return false
	}
	y := ast.Unparen(e.Y)
	if tv, ok := n.pkg.Info.Types[y]; ok && tv.Value != nil {
		return false // constant divisor
	}
	if _, ok := y.(*ast.SelectorExpr); ok {
		return false
	}
	if ix, ok := y.(*ast.IndexExpr); ok {
		if _, isSel := ast.Unparen(ix.X).(*ast.SelectorExpr); isSel {
			return false
		}
	}
	obj := n.rootObj(y)
	if obj == nil {
		return false // complex divisor expressions are out of scope
	}
	if n.guarded[obj] || n.compared[obj] {
		return false
	}
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	if fieldOwner(obj) != nil {
		return false
	}
	return true
}

// fieldOwner returns the struct type a var belongs to as a field, nil
// for plain locals/params/globals.
func fieldOwner(obj types.Object) *types.Var {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// callResultTaints computes per-result taint masks for a call.
func (n *nanFlow) callResultTaints(env taintEnv, call *ast.CallExpr) []uint64 {
	bare, key := n.calleeNames(call)

	var argT uint64
	for _, a := range call.Args {
		argT |= n.taintOf(env, a)
	}
	// A method call propagates its receiver's taint too.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isPkg := n.pkg.Info.ObjectOf(selIdent(sel.X)).(*types.PkgName); !isPkg {
			argT |= n.taintOf(env, sel.X)
		}
	}

	nres := 1
	if sig, ok := typeAsSignature(typeOf(n.pkg.Info, call.Fun)); ok {
		nres = sig.Results().Len()
	}
	out := make([]uint64, nres)

	if externalGuards[key] || n.cfg.nanflowGuardName(bare) {
		return out // a guard's results are clean by definition
	}
	if _, isSource := externalNaNSources[key]; isSource {
		for i := range out {
			out[i] = argT | taintNaN
		}
		return out
	}
	if sum := n.sums[key]; sum != nil {
		for i := range out {
			if i < len(sum.resultMayNaN) && sum.resultMayNaN[i] {
				out[i] |= taintNaN
			}
			if i < len(sum.resultFromParam) {
				for j, flows := range sum.resultFromParam[i] {
					if flows && j < len(call.Args) {
						out[i] |= n.taintOf(env, call.Args[j])
					}
				}
			}
		}
		return out
	}
	// Unknown external or indirect callee: propagate, never introduce.
	for i := range out {
		out[i] = argT
	}
	return out
}

func selIdent(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	if id == nil {
		return &ast.Ident{Name: ""}
	}
	return id
}

// noteCause records a source description for later diagnostics.
func (n *nanFlow) noteCause(obj types.Object, desc string) {
	if obj == nil || desc == "" {
		return
	}
	if _, ok := n.cause[obj]; !ok {
		n.cause[obj] = desc
	}
}

// causeOf derives a source description for an expression's taint.
func (n *nanFlow) causeOf(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(node ast.Node) bool {
		if found != "" {
			return false
		}
		switch node := node.(type) {
		case *ast.CallExpr:
			_, key := n.calleeNames(node)
			if desc, ok := externalNaNSources[key]; ok {
				found = desc
			}
		case *ast.BinaryExpr:
			if node.Op == token.QUO && n.uncheckedDivision(node) {
				found = fmt.Sprintf("unchecked division by %s", nodeText(node.Y))
			}
		case *ast.Ident:
			if obj := n.pkg.Info.ObjectOf(node); obj != nil {
				if c, ok := n.cause[obj]; ok {
					found = c
				}
			}
		}
		return true
	})
	if found == "" {
		found = "an upstream NaN-capable computation"
	}
	return found
}

// sinkField returns the written field and its owning type name when the
// assignment target is a persistent-state sink.
func (n *nanFlow) sinkField(lhs ast.Expr) (field *types.Var, owner string) {
	sel := baseSelector(lhs)
	if sel == nil {
		return nil, ""
	}
	obj, ok := n.pkg.Info.ObjectOf(sel.Sel).(*types.Var)
	if !ok || !obj.IsField() || obj.Pkg() == nil {
		return nil, ""
	}
	if !n.cfg.nanflowSinkPackage(obj.Pkg().Path()) {
		return nil, ""
	}
	owner = obj.Pkg().Name()
	if t := typeOf(n.pkg.Info, sel.X); t != nil {
		u := t
		if p, ok := u.(*types.Pointer); ok {
			u = p.Elem()
		}
		if named, ok := u.(*types.Named); ok {
			owner = obj.Pkg().Name() + "." + named.Obj().Name()
		}
	}
	return obj, owner
}

// baseSelector digs the selector out of nested index/star expressions:
// m.temp[i] → m.temp.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		return e
	case *ast.IndexExpr:
		return baseSelector(e.X)
	case *ast.StarExpr:
		return baseSelector(e.X)
	}
	return nil
}

// reportSink emits the in-function sink diagnostic (bit 0 only; param
// bits surface at call sites via summaries).
func (n *nanFlow) reportSink(pos token.Pos, t uint64, rhs ast.Expr, field *types.Var, owner string) {
	if n.pass != nil && t&taintNaN != 0 {
		n.pass.Reportf(pos,
			"possible NaN (from %s) stored into %s.%s without an IsNaN/Validate/clamp guard",
			n.causeOf(rhs), owner, field.Name())
	}
	if n.sum != nil {
		for j := range n.sum.paramSink {
			if t&paramBit(j) != 0 && n.sum.paramSink[j] == "" {
				n.sum.paramSink[j] = owner + "." + field.Name()
			}
		}
	}
}

// checkCallSinks reports tainted arguments handed to callees that store
// them into persistent state unguarded (per their summary).
func (n *nanFlow) checkCallSinks(env taintEnv, call *ast.CallExpr) {
	if n.pass == nil {
		return
	}
	_, key := n.calleeNames(call)
	sum := n.sums[key]
	if sum == nil {
		return
	}
	for j, a := range call.Args {
		if j >= len(sum.paramSink) || sum.paramSink[j] == "" {
			continue
		}
		if n.taintOf(env, a)&taintNaN != 0 {
			n.pass.Reportf(a.Pos(),
				"possible NaN (from %s) passed to %s, which stores it into %s without a guard",
				n.causeOf(a), calleeName(call), sum.paramSink[j])
		}
	}
}

// assignTo folds taint into an assignment target and fires sink checks.
func (n *nanFlow) assignTo(env taintEnv, lhs, rhs ast.Expr, t uint64, accumulate bool) {
	if field, owner := n.sinkField(lhs); field != nil {
		n.reportSink(rhs.Pos(), t, rhs, field, owner)
	}
	obj := n.rootObj(lhs)
	if obj == nil {
		return
	}
	if n.guarded[obj] {
		delete(env, obj)
		return
	}
	if t != 0 {
		if t&taintNaN != 0 {
			n.noteCause(obj, n.causeOf(rhs))
		}
		if accumulate {
			env[obj] |= t
		} else {
			env[obj] = t
		}
	} else if !accumulate {
		delete(env, obj)
	}
}

// applyStmt folds one simple statement into the environment.
func (n *nanFlow) applyStmt(env taintEnv, s ast.Stmt) {
	// Call-site sink checks see the pre-statement environment.
	ast.Inspect(s, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			n.checkCallSinks(env, node)
		}
		return true
	})

	switch s := s.(type) {
	case *ast.AssignStmt:
		switch s.Tok {
		case token.QUO_ASSIGN:
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				div := &ast.BinaryExpr{X: s.Lhs[0], Op: token.QUO, Y: s.Rhs[0], OpPos: s.TokPos}
				t := n.taintOf(env, s.Lhs[0]) | n.taintOf(env, s.Rhs[0])
				if n.uncheckedDivision(div) {
					t |= taintNaN
				}
				n.assignTo(env, s.Lhs[0], s.Rhs[0], t, true)
			}
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
			if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
				n.assignTo(env, s.Lhs[0], s.Rhs[0], n.taintOf(env, s.Rhs[0]), true)
			}
		case token.ASSIGN, token.DEFINE:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					n.assignTo(env, s.Lhs[i], s.Rhs[i], n.taintOf(env, s.Rhs[i]), false)
				}
			} else if len(s.Rhs) == 1 {
				if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
					ts := n.callResultTaints(env, call)
					for i, l := range s.Lhs {
						var t uint64
						if i < len(ts) {
							t = ts[i]
						}
						n.assignTo(env, l, s.Rhs[0], t, false)
					}
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					for i, name := range vs.Names {
						n.assignTo(env, name, vs.Values[i], n.taintOf(env, vs.Values[i]), false)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		if n.sum != nil {
			n.recordReturn(env, s)
		}
	}
}

// recordReturn folds a return statement into the summary.
func (n *nanFlow) recordReturn(env taintEnv, ret *ast.ReturnStmt) {
	results := ret.Results
	if len(results) == 0 {
		// Naked return: named results carry their environment taint.
		if n.fn.Sig == nil {
			return
		}
		for i := 0; i < n.fn.Sig.Results().Len(); i++ {
			res := n.fn.Sig.Results().At(i)
			n.foldResult(i, env[resObj(n.fn, res)])
		}
		return
	}
	if len(results) != len(n.sum.resultMayNaN) {
		return // `return f()` tuple forwarding: conservative skip
	}
	for i, r := range results {
		n.foldResult(i, n.taintOf(env, r))
	}
}

// resObj maps a signature result var back to the object the body binds.
func resObj(fn *FlowFunc, res *types.Var) types.Object { return res }

func (n *nanFlow) foldResult(i int, t uint64) {
	if i >= len(n.sum.resultMayNaN) {
		return
	}
	if t&taintNaN != 0 {
		n.sum.resultMayNaN[i] = true
	}
	for j := range n.sum.resultFromParam[i] {
		if t&paramBit(j) != 0 {
			n.sum.resultFromParam[i][j] = true
		}
	}
}

// applyBlock folds one CFG block.
func (n *nanFlow) applyBlock(env taintEnv, b *Block) {
	for _, s := range b.Stmts {
		n.applyStmt(env, s)
	}
	if b.Range != nil {
		t := n.taintOf(env, b.Range.X)
		if v, ok := b.Range.Value.(*ast.Ident); ok && v != nil {
			n.assignTo(env, v, b.Range.X, t, false)
		}
	}
}

// seedParams taints each parameter with its own bit (summary mode).
func (n *nanFlow) seedParams(env taintEnv) {
	if n.fn.Sig == nil {
		return
	}
	for i := 0; i < n.fn.Sig.Params().Len(); i++ {
		p := n.fn.Sig.Params().At(i)
		if !isFloatType(p.Type()) && !isFloatSlice(p.Type()) {
			continue
		}
		if obj := lookupParamObj(n.fn, p); obj != nil && !n.guarded[obj] {
			env[obj] = paramBit(i)
		}
	}
}

func isFloatSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	return ok && isFloatType(sl.Elem())
}

// lookupParamObj maps a signature parameter to the body's object. The
// source-checked package uses the same *types.Var for both, so this is
// the identity; kept as a seam for clarity.
func lookupParamObj(fn *FlowFunc, p *types.Var) types.Object { return p }

// analyze runs the taint engine over one function.
func (n *nanFlow) analyze(summaryMode bool) {
	n.cause = map[types.Object]string{}
	n.collectGuards(n.fn.Decl.Body)
	bottom := func() taintEnv {
		env := taintEnv{}
		if summaryMode {
			n.seedParams(env)
		}
		return env
	}
	eng := &Dataflow[taintEnv]{
		CFG:    n.fn.CFG(),
		Bottom: bottom,
		Clone:  cloneTaintEnv,
		Join:   joinTaintEnv,
		Transfer: func(b *Block, env taintEnv) taintEnv {
			if summaryMode {
				n.applyBlock(env, b)
			} else {
				// Reporting happens in the replay below, not here.
				saved := n.pass
				n.pass = nil
				n.applyBlock(env, b)
				n.pass = saved
			}
			return env
		},
	}
	in := eng.Forward()
	if !summaryMode {
		for _, b := range n.fn.CFG().Blocks {
			env := cloneTaintEnv(in[b])
			n.applyBlock(env, b)
		}
	}
}

// updateTaintSummary recomputes one function's taint summary.
func updateTaintSummary(p *Program, fn *FlowFunc, sums map[string]*taintSummary) bool {
	sum := sums[fn.Key]
	before := snapshotTaintSummary(sum)
	n := &nanFlow{pkg: fn.Pkg, prog: p, cfg: p.Config, sums: sums, fn: fn, sum: sum}
	n.analyze(true)
	return snapshotTaintSummary(sum) != before
}

// snapshotTaintSummary serialises a summary for change detection.
func snapshotTaintSummary(s *taintSummary) string {
	var sb strings.Builder
	for _, b := range s.resultMayNaN {
		fmt.Fprintf(&sb, "%t,", b)
	}
	sb.WriteByte('|')
	for _, row := range s.resultFromParam {
		for _, b := range row {
			fmt.Fprintf(&sb, "%t,", b)
		}
		sb.WriteByte(';')
	}
	sb.WriteByte('|')
	for _, p := range s.paramSink {
		sb.WriteString(p)
		sb.WriteByte(',')
	}
	return sb.String()
}

func runNanflow(p *Pass) {
	if p.Program == nil {
		return
	}
	sums := p.Program.TaintSummaries()
	var pkg *Package
	for _, candidate := range p.Program.Pkgs {
		if candidate.ImportPath == p.ImportPath {
			pkg = candidate
			break
		}
	}
	if pkg == nil {
		return
	}
	for _, fn := range packageFuncs(p.Program, pkg) {
		n := &nanFlow{pkg: pkg, prog: p.Program, cfg: p.Config, sums: sums, fn: fn, pass: p}
		n.analyze(false)
	}
}
