package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Unitflow enforces the repository's unit-suffix convention. Every
// physical quantity is a bare float64 whose unit lives only in its
// identifier suffix (tempC, dtS, PlossW, FreqGHz, ...). The pass reads
// a unit off each suffix and *propagates* it through the program: a
// function that returns a kelvin value (named result `tK`, a name like
// ambientK, or a body whose every return path yields kelvin) stamps its
// callers' unsuffixed locals, struct-field reads carry the field's
// suffix through intermediate variables, and the facts cross call
// boundaries via bottom-up function summaries (summary.go). Over the
// suffixed and the propagated facts alike it flags
//
//   - call arguments whose unit contradicts the parameter suffix
//     (Reset(tempK) or x := AmbientK(); Reset(x) with
//     Reset(tempC float64));
//   - assignments, compound assignments, var declarations and keyed
//     struct-literal fields pairing a suffixed destination with a
//     contradicting unit;
//   - return statements contradicting the declared result unit (named
//     result suffix, or the function's own name suffix for single
//     results);
//   - comparisons and additive arithmetic mixing incompatible units.
//
// The Celsius↔Kelvin conversion idiom (± 273.15) is recognised, so
// `tempK := tempC + 273.15` is accepted. Units are only inferred for
// float-typed expressions (and float vectors, whose suffix tags every
// element), which keeps enum-ish names like core.OracV out of scope,
// and suffixes preceded by "Per" (SinkResKPerW) are compound units and
// carry none. Propagation is a forward dataflow (dataflow.go) over each
// function's CFG, so units survive loops and branches; joins of
// contradictory inferences resolve to a conflict sentinel that
// silences (never invents) diagnostics. Code outside any declared
// function's CFG — package-level initialisers, function-literal bodies
// and switch case expressions — is checked against an empty
// environment, i.e. with suffix and callee facts only.
var Unitflow = &Analyzer{
	Name:         "unitflow",
	Doc:          "flags unit contradictions (C/K, W/mW, S/MS, ...) from suffixes propagated across calls, fields and locals",
	Run:          runUnitflow,
	NeedsProgram: true,
}

// unitInfo is one entry of the suffix lattice.
type unitInfo struct {
	Suffix string // case-sensitive identifier suffix
	Dim    string // dimension key: two units are convertible iff dims match
	Name   string // human-readable unit name for diagnostics
}

// unitLattice is the suffix → unit table, longest suffix first so that
// FreqGHz matches GHz rather than Hz.
var unitLattice = []unitInfo{
	{"GHz", "frequency", "gigahertz"},
	{"MHz", "frequency", "megahertz"},
	{"KHz", "frequency", "kilohertz"},
	{"Hz", "frequency", "hertz"},
	{"mW", "power", "milliwatts"},
	{"MW", "power", "milliwatts"}, // exported-identifier spelling of mW
	{"mV", "voltage", "millivolts"},
	{"MV", "voltage", "millivolts"},
	{"NS", "time", "nanoseconds"},
	{"Ns", "time", "nanoseconds"},
	{"US", "time", "microseconds"},
	{"MS", "time", "milliseconds"},
	{"MM", "length", "millimetres"},
	{"C", "temperature", "degrees Celsius"},
	{"K", "temperature", "kelvin"},
	{"W", "power", "watts"},
	{"V", "voltage", "volts"},
	{"A", "current", "amperes"},
	{"S", "time", "seconds"},
	{"J", "energy", "joules"},
}

// canonicalSuffix folds spelling variants (MW → mW, Ns → NS) so scale
// comparison treats them as the same unit.
func canonicalSuffix(s string) string {
	switch s {
	case "MW":
		return "mW"
	case "MV":
		return "mV"
	case "Ns":
		return "NS"
	}
	return s
}

// suffixUnit extracts a unit from an identifier name, or nil. The
// character before the suffix must be a lower-case letter or digit (the
// camelCase boundary: MaxTempC yes, DVFS/CSV/NOC no), and "Per"
// immediately before the suffix marks a compound unit (SinkResKPerW,
// capJPerK) that carries no single-unit meaning.
func suffixUnit(name string) *unitInfo {
	for i := range unitLattice {
		u := &unitLattice[i]
		if !strings.HasSuffix(name, u.Suffix) {
			continue
		}
		cut := len(name) - len(u.Suffix)
		if cut == 0 {
			continue // the whole name is the suffix: not a unit tag
		}
		prev := name[cut-1]
		if !(prev >= 'a' && prev <= 'z' || prev >= '0' && prev <= '9') {
			continue
		}
		if cut >= 3 && name[cut-3:cut] == "Per" {
			continue
		}
		return u
	}
	return nil
}

// kelvinOffset is the Celsius↔Kelvin conversion constant the pass
// recognises as an explicit unit conversion.
const kelvinOffset = "273.15"

func isKelvinOffset(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.FLOAT && lit.Value == kelvinOffset
}

// convertTemp maps tempC + 273.15 → kelvin and tempK - 273.15 → Celsius;
// any other combination with the offset constant is left unit-less.
func convertTemp(u *unitInfo, op token.Token) *unitInfo {
	if u == nil {
		return nil
	}
	switch {
	case u.Suffix == "C" && op == token.ADD:
		return lookupSuffix("K")
	case u.Suffix == "K" && op == token.SUB:
		return lookupSuffix("C")
	}
	return nil
}

func lookupSuffix(s string) *unitInfo {
	for i := range unitLattice {
		if unitLattice[i].Suffix == s {
			return &unitLattice[i]
		}
	}
	return nil
}

// mismatch classifies a unit pair: "" (compatible), "dimension", or
// "scale".
func mismatch(a, b *unitInfo) string {
	if a == nil || b == nil {
		return ""
	}
	if a.Dim != b.Dim {
		return "dimension"
	}
	if canonicalSuffix(a.Suffix) != canonicalSuffix(b.Suffix) {
		return "scale"
	}
	return ""
}

// isFloatType reports whether t is a floating-point type.
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}

func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "function"
}

func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return "expression"
}

// unitEnv maps local objects (unsuffixed variables) to inferred units.
type unitEnv map[types.Object]*unitInfo

func cloneUnitEnv(e unitEnv) unitEnv {
	c := make(unitEnv, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// joinUnitEnv merges src into dst; a variable known on one path only
// keeps its unit (optimistic), contradictions become the conflict
// sentinel.
func joinUnitEnv(dst, src unitEnv) (unitEnv, bool) {
	changed := false
	for k, sv := range src {
		dv, ok := dst[k]
		j := joinUnit(dv, sv)
		if !ok || j != dv {
			dst[k] = j
			changed = true
		}
	}
	return dst, changed
}

// unitFlow evaluates units with the full propagation context. pass is
// nil while computing summaries (no reporting then).
type unitFlow struct {
	pkg  *Package
	prog *Program
	sums map[string]*unitSummary
	pass *Pass
}

func (u *unitFlow) isFloat(e ast.Expr) bool {
	return isFloatType(typeOf(u.pkg.Info, e))
}

// isUnitBearing accepts both scalar floats and float vectors: a
// suffixed vector name (tempsC []float64) tags every element, so the
// IndexExpr and range rules need its unit too.
func (u *unitFlow) isUnitBearing(e ast.Expr) bool {
	t := typeOf(u.pkg.Info, e)
	if isFloatType(t) {
		return true
	}
	if t == nil {
		return false
	}
	switch v := t.Underlying().(type) {
	case *types.Slice:
		return isFloatType(v.Elem())
	case *types.Array:
		return isFloatType(v.Elem())
	}
	return false
}

// unitOf infers the unit of an expression using suffixes, the local
// environment, and callee summaries. Returns nil for unknown or
// conflicting inferences.
func (u *unitFlow) unitOf(env unitEnv, e ast.Expr) *unitInfo {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if u.isUnitBearing(e) {
			if s := suffixUnit(e.Name); s != nil {
				return s
			}
		}
		if obj := u.pkg.Info.ObjectOf(e); obj != nil {
			return knownUnit(env[obj])
		}
	case *ast.SelectorExpr:
		if u.isUnitBearing(e) {
			return suffixUnit(e.Sel.Name)
		}
	case *ast.IndexExpr:
		// An element of a suffixed vector carries the vector's unit:
		// m.blockTempC[i] is degrees Celsius.
		if u.isFloat(e) {
			return u.unitOf(env, e.X)
		}
	case *ast.CallExpr:
		units := u.callResultUnits(env, e)
		if len(units) == 1 {
			return knownUnit(units[0])
		}
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return u.unitOf(env, e.X)
		}
	case *ast.BinaryExpr:
		return u.binaryUnit(env, e)
	}
	return nil
}

// binaryUnit resolves the unit of an additive expression: the ±273.15
// idiom converts between C and K, a unit plus a unitless term keeps the
// unit, and mismatched operands resolve to no unit (checkExprTree
// reports them separately).
func (u *unitFlow) binaryUnit(env unitEnv, e *ast.BinaryExpr) *unitInfo {
	if e.Op != token.ADD && e.Op != token.SUB {
		return nil
	}
	lu, ru := u.unitOf(env, e.X), u.unitOf(env, e.Y)
	if isKelvinOffset(e.Y) {
		return convertTemp(lu, e.Op)
	}
	if isKelvinOffset(e.X) && e.Op == token.ADD {
		return convertTemp(ru, e.Op)
	}
	switch {
	case lu != nil && ru != nil:
		if canonicalSuffix(lu.Suffix) == canonicalSuffix(ru.Suffix) {
			return lu
		}
		return nil
	case lu != nil:
		return lu
	default:
		return ru
	}
}

// callResultUnits resolves the units of a call's results: explicit
// result-name suffixes win, then the callee's body-inferred summary,
// then the callee name's own suffix on a single float result. Calls
// through func values (fields, variables) have no summary and get the
// name rule only.
func (u *unitFlow) callResultUnits(env unitEnv, call *ast.CallExpr) []*unitInfo {
	fn := calleeFunc(u.pkg, call)
	if fn == nil {
		if !u.isFloat(call) {
			return nil
		}
		return []*unitInfo{suffixUnit(calleeName(call))}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	n := sig.Results().Len()
	units := make([]*unitInfo, n)
	sum := u.sums[FuncKey(fn)]
	for i := 0; i < n; i++ {
		res := sig.Results().At(i)
		if !isFloatType(res.Type()) {
			continue
		}
		if s := suffixUnit(res.Name()); s != nil {
			units[i] = s
			continue
		}
		if sum != nil && i < len(sum.results) {
			units[i] = knownUnit(sum.results[i])
		}
		if units[i] == nil && n == 1 {
			units[i] = suffixUnit(fn.Name())
		}
	}
	return units
}

// declaredResultUnits returns the units a function's return statements
// must honour: named-result suffixes, or the function name's suffix for
// a single anonymous float result (name is "" for function literals).
func declaredResultUnits(name string, sig *types.Signature) []*unitInfo {
	if sig == nil {
		return nil
	}
	n := sig.Results().Len()
	units := make([]*unitInfo, n)
	for i := 0; i < n; i++ {
		res := sig.Results().At(i)
		if !isFloatType(res.Type()) {
			continue
		}
		if s := suffixUnit(res.Name()); s != nil {
			units[i] = s
		} else if n == 1 && res.Name() == "" {
			units[i] = suffixUnit(name)
		}
	}
	return units
}

// lhsUnit reads the authoritative unit of an assignment destination
// from its suffix (identifier, field selector, or indexed vector).
func (u *unitFlow) lhsUnit(e ast.Expr) *unitInfo {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if u.isUnitBearing(e) {
			return suffixUnit(e.Name)
		}
	case *ast.SelectorExpr:
		if u.isUnitBearing(e) {
			return suffixUnit(e.Sel.Name)
		}
	case *ast.IndexExpr:
		if u.isFloat(e) {
			return u.lhsUnit(e.X)
		}
	}
	return nil
}

// reportf funnels diagnostics; nil pass (summary mode) drops them.
func (u *unitFlow) reportf(pos token.Pos, format string, args ...any) {
	if u.pass != nil {
		u.pass.Reportf(pos, format, args...)
	}
}

// checkFlowPair reports a unit contradiction on an assignment pair.
func (u *unitFlow) checkFlowPair(env unitEnv, dst, rhs ast.Expr, verb string, report bool) {
	if !report {
		return
	}
	du := u.lhsUnit(dst)
	if du == nil {
		return
	}
	ru := u.unitOf(env, rhs)
	if kind := mismatch(ru, du); kind != "" {
		u.reportf(rhs.Pos(), "%s mismatch: value in %s (%s) %s %q (%s)",
			kind, ru.Name, ru.Suffix, verb, exprName(dst), du.Name)
	}
}

// checkCallArgs verifies each float argument's unit against the
// parameter suffix.
func (u *unitFlow) checkCallArgs(env unitEnv, call *ast.CallExpr) {
	sig, ok := typeAsSignature(typeOf(u.pkg.Info, call.Fun))
	if !ok {
		return
	}
	np := sig.Params().Len()
	if np == 0 {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if pi >= np {
			if !sig.Variadic() {
				return
			}
			pi = np - 1
		}
		param := sig.Params().At(pi)
		ptype := param.Type()
		if sig.Variadic() && pi == np-1 {
			if sl, ok := ptype.(*types.Slice); ok {
				ptype = sl.Elem()
			}
		}
		if !isFloatType(ptype) {
			continue
		}
		pu := suffixUnit(param.Name())
		if pu == nil {
			continue
		}
		au := u.unitOf(env, arg)
		if kind := mismatch(au, pu); kind != "" {
			u.reportf(arg.Pos(),
				"%s mismatch: argument in %s (%s) passed to parameter %q of %s (%s)",
				kind, au.Name, au.Suffix, param.Name(), calleeName(call), pu.Name)
		}
	}
}

// checkExprTree walks an expression for calls (argument checks), keyed
// struct literals, and mixed-unit comparisons, without descending into
// function literals (their bodies are not this function's flow).
func (u *unitFlow) checkExprTree(env unitEnv, e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			u.checkCallArgs(env, n)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !u.isFloat(kv.Value) {
					continue
				}
				ku := suffixUnit(key.Name)
				if ku == nil {
					continue
				}
				vu := u.unitOf(env, kv.Value)
				if kind := mismatch(vu, ku); kind != "" {
					u.reportf(kv.Value.Pos(), "%s mismatch: value in %s (%s) assigned to field %q (%s)",
						kind, vu.Name, vu.Suffix, key.Name, ku.Name)
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				if isKelvinOffset(n.X) || isKelvinOffset(n.Y) {
					return true
				}
				lu, ru := u.unitOf(env, n.X), u.unitOf(env, n.Y)
				if kind := mismatch(lu, ru); kind != "" {
					u.reportf(n.OpPos, "%s mismatch: %s (%s) %s %s (%s) without conversion",
						kind, lu.Name, lu.Suffix, n.Op, ru.Name, ru.Suffix)
				}
			}
		}
		return true
	})
}

// bindIdent updates the environment for an assignment to an identifier.
// Suffixed names are authoritative (never tracked); unsuffixed float
// locals adopt the right-hand side's inferred unit.
func (u *unitFlow) bindIdent(env unitEnv, id *ast.Ident, unit *unitInfo) {
	obj := u.pkg.Info.ObjectOf(id)
	if obj == nil || id.Name == "_" {
		return
	}
	if suffixUnit(id.Name) != nil && u.isFloat(id) {
		return
	}
	if unit == nil {
		delete(env, obj)
		return
	}
	env[obj] = unit
}

// applyStmt folds one simple statement into the environment, emitting
// diagnostics when report is set.
func (u *unitFlow) applyStmt(env unitEnv, s ast.Stmt, report bool, declared []*unitInfo) {
	if report {
		// Check calls/literals/comparisons inside the statement against
		// the environment as it stands *before* the statement executes.
		switch s := s.(type) {
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				u.checkExprTree(env, r)
			}
			for _, l := range s.Lhs {
				u.checkExprTree(env, l)
			}
		case *ast.ExprStmt:
			u.checkExprTree(env, s.X)
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				u.checkExprTree(env, r)
			}
		case *ast.DeferStmt:
			u.checkExprTree(env, s.Call)
		case *ast.GoStmt:
			u.checkExprTree(env, s.Call)
		case *ast.SendStmt:
			u.checkExprTree(env, s.Value)
		case *ast.IncDecStmt:
			u.checkExprTree(env, s.X)
		case *ast.IfStmt, *ast.ForStmt: // handled via Cond on the block
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							u.checkExprTree(env, v)
						}
					}
				}
			}
		}
	}

	switch s := s.(type) {
	case *ast.AssignStmt:
		u.applyAssign(env, s, report)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Names) != len(vs.Values) {
				continue
			}
			for i, name := range vs.Names {
				ru := u.unitOf(env, vs.Values[i])
				u.checkFlowPair(env, name, vs.Values[i], "initialises", report)
				u.bindIdent(env, name, ru)
			}
		}
	case *ast.ReturnStmt:
		if report && declared != nil && len(s.Results) == len(declared) {
			for i, r := range s.Results {
				du := declared[i]
				if du == nil {
					continue
				}
				ru := u.unitOf(env, r)
				if kind := mismatch(ru, du); kind != "" {
					u.reportf(r.Pos(), "%s mismatch: returning %s (%s) from a function declared to return %s",
						kind, ru.Name, ru.Suffix, du.Name)
				}
			}
		}
	}
}

func (u *unitFlow) applyAssign(env unitEnv, a *ast.AssignStmt, report bool) {
	switch a.Tok {
	case token.ASSIGN, token.DEFINE:
		if len(a.Lhs) == len(a.Rhs) {
			for i := range a.Lhs {
				ru := u.unitOf(env, a.Rhs[i])
				u.checkFlowPair(env, a.Lhs[i], a.Rhs[i], "assigned to", report)
				if id, ok := ast.Unparen(a.Lhs[i]).(*ast.Ident); ok {
					u.bindIdent(env, id, ru)
				}
			}
			return
		}
		// Tuple assignment from one call: distribute the result units.
		if len(a.Rhs) == 1 {
			if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
				units := u.callResultUnits(env, call)
				for i, l := range a.Lhs {
					if i >= len(units) {
						break
					}
					ru := knownUnit(units[i])
					if report {
						if du := u.lhsUnit(l); du != nil {
							if kind := mismatch(ru, du); kind != "" {
								u.reportf(l.Pos(), "%s mismatch: result %d of %s in %s (%s) assigned to %q (%s)",
									kind, i, calleeName(call), ru.Name, ru.Suffix, exprName(l), du.Name)
							}
						}
					}
					if id, ok := ast.Unparen(l).(*ast.Ident); ok {
						u.bindIdent(env, id, ru)
					}
				}
			}
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		if len(a.Lhs) == 1 && len(a.Rhs) == 1 {
			u.checkFlowPair(env, a.Lhs[0], a.Rhs[0], "accumulated into", report)
		}
	}
}

// applyBlock folds a CFG block: statements, then the range binding,
// then checks inside the branch condition.
func (u *unitFlow) applyBlock(env unitEnv, b *Block, report bool, declared []*unitInfo) {
	for _, s := range b.Stmts {
		u.applyStmt(env, s, report, declared)
	}
	if b.Range != nil {
		// for k, v := range m.tempsC — the element carries the vector's unit.
		if report {
			u.checkExprTree(env, b.Range.X)
		}
		eu := u.unitOf(env, b.Range.X)
		if v, ok := b.Range.Value.(*ast.Ident); ok && v != nil {
			u.bindIdent(env, v, eu)
		}
		if k, ok := b.Range.Key.(*ast.Ident); ok && k != nil && b.Range.Value == nil {
			// `for i := range xs` binds an index: no unit.
			u.bindIdent(env, k, nil)
		}
	}
	if b.Cond != nil && report {
		u.checkExprTree(env, b.Cond)
	}
}

// flowFunction runs the engine over one function body and returns
// per-block entry environments.
func (u *unitFlow) flowFunction(cfg *CFG, declared []*unitInfo) map[*Block]unitEnv {
	eng := &Dataflow[unitEnv]{
		CFG:    cfg,
		Bottom: func() unitEnv { return unitEnv{} },
		Clone:  cloneUnitEnv,
		Join:   joinUnitEnv,
		Transfer: func(b *Block, env unitEnv) unitEnv {
			u.applyBlock(env, b, false, declared)
			return env
		},
	}
	return eng.Forward()
}

// updateUnitSummary recomputes one function's result units from its
// body, reporting whether the summary changed (the SCC fixpoint bit).
func updateUnitSummary(p *Program, fn *FlowFunc, sums map[string]*unitSummary) bool {
	sum := sums[fn.Key]
	if len(sum.results) == 0 {
		return false
	}
	u := &unitFlow{pkg: fn.Pkg, prog: p, sums: sums}
	in := u.flowFunction(fn.CFG(), nil)

	next := make([]*unitInfo, len(sum.results))
	// Explicit result-name suffixes are authoritative.
	for i := 0; i < fn.Sig.Results().Len(); i++ {
		res := fn.Sig.Results().At(i)
		if isFloatType(res.Type()) {
			if s := suffixUnit(res.Name()); s != nil {
				next[i] = s
			}
		}
	}
	for _, b := range fn.CFG().Blocks {
		env := cloneUnitEnv(in[b])
		for _, s := range b.Stmts {
			if ret, ok := s.(*ast.ReturnStmt); ok && len(ret.Results) == len(next) {
				for i, r := range ret.Results {
					if next[i] != nil && suffixUnit(fn.Sig.Results().At(i).Name()) != nil {
						continue // name wins
					}
					next[i] = joinUnit(next[i], u.unitOf(env, r))
				}
			}
			u.applyStmt(env, s, false, nil)
		}
	}
	changed := false
	for i := range next {
		j := joinUnit(sum.results[i], next[i])
		if j != sum.results[i] {
			sum.results[i] = j
			changed = true
		}
	}
	return changed
}

func runUnitflow(p *Pass) {
	if p.Program == nil {
		return
	}
	pkg := p.Program.pkgByPath(p.ImportPath)
	if pkg == nil {
		return
	}
	u := &unitFlow{pkg: pkg, prog: p.Program, sums: p.Program.UnitSummaries(), pass: p}
	for _, fn := range packageFuncs(p.Program, pkg) {
		u.checkFunc(fn.CFG(), declaredResultUnits(fn.Decl.Name.Name, fn.Sig))
	}
	// What no declared function's CFG holds: package-level initialisers,
	// function-literal bodies (checkExprTree stops at a literal), and
	// switch case expressions (the CFG keeps only the tag).
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && (gd.Tok == token.VAR || gd.Tok == token.CONST) {
				u.applyStmt(unitEnv{}, &ast.DeclStmt{Decl: gd}, true, nil)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				sig, _ := typeAsSignature(typeOf(pkg.Info, n))
				u.checkFunc(BuildCFG(&ast.FuncDecl{Type: n.Type, Body: n.Body}), declaredResultUnits("", sig))
			case *ast.CaseClause:
				for _, e := range n.List {
					u.checkExprTree(unitEnv{}, e)
				}
			}
			return true
		})
	}
}

// checkFunc runs the flow over one body and replays every block from
// its entry environment with reporting on.
func (u *unitFlow) checkFunc(cfg *CFG, declared []*unitInfo) {
	in := u.flowFunction(cfg, declared)
	for _, b := range cfg.Blocks {
		u.applyBlock(cloneUnitEnv(in[b]), b, true, declared)
	}
}

// packageFuncs returns the program's functions declared in pkg, in
// source order (deterministic diagnostics).
func packageFuncs(prog *Program, pkg *Package) []*FlowFunc {
	var out []*FlowFunc
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.ObjectOf(fd.Name).(*types.Func)
			if obj == nil {
				continue
			}
			if fn := prog.Funcs[FuncKey(obj)]; fn != nil && fn.Decl == fd {
				out = append(out, fn)
			}
		}
	}
	return out
}
