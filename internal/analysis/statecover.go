package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Statecover verifies the checkpoint round-trip contract introduced in
// the fault-tolerance PR: every subsystem exposes a snapshot producer
// (State / snapshot, Config.Statecover.Producers) returning a plain
// exported-field struct, and a consumer (Restore,
// Config.Statecover.Consumers) that applies one. The gob encoder persists
// exactly the exported fields, so a field that the producer never
// assigns silently checkpoints as zero, and a field the consumer never
// reads silently loses state on resume — both are one-line mistakes
// that survive every unit test that doesn't crash mid-epoch.
//
// The pass anchors on each consumer declared in the package under
// analysis: the first parameter whose (pointer-stripped) type is a
// named struct S becomes the snapshot schema. It then finds the
// producers for S (same package, configured name, S or *S among the
// results) and walks the call graph — producer side and consumer side
// separately, helpers included — collecting:
//
//   - writes: composite-literal keys ({Seed: r.seed, ...}), full
//     positional literals, and x.F = assignments where x is S-typed;
//   - reads: any selector on an S-typed expression, plus whole-value
//     escapes (an S value stored into a struct field, returned, or
//     passed to a function outside the program) which count as reading
//     every field — r.resume = cp keeps the checkpoint for later, and
//     the pass cannot see further.
//
// Every exported field of S must be both written by each producer and
// read by each consumer. Field identity is matched by
// "pkgpath.Type.Field" strings, not object pointers, because helper
// functions in other packages see S through export data as different
// types.Object values (see callgraph.go).
var Statecover = &Analyzer{
	Name:         "statecover",
	Doc:          "verifies checkpoint State()/Restore() pairs cover every exported field",
	Run:          runStatecover,
	NeedsProgram: true,
}

// typeKey canonically names a (possibly pointered) named type as
// "pkgpath.Name", or "" for everything else.
func typeKey(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// namedStruct returns the named struct behind t (through one pointer),
// or nil.
func namedStruct(t types.Type) (*types.Named, *types.Struct) {
	if t == nil {
		return nil, nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return named, st
}

// schemaAnchor ties one snapshot struct to its producers and consumers.
type schemaAnchor struct {
	key       string // "pkgpath.TypeName"
	display   string // "sim.Checkpoint" for diagnostics
	fields    []string
	fieldSet  map[string]bool
	consumers []*FlowFunc
	producers []*FlowFunc
}

// stateWalker accumulates field coverage across a BFS over the call
// graph starting at one anchor function.
type stateWalker struct {
	prog    *Program
	sKey    string
	fields  map[string]bool
	covered map[string]bool
	all     bool // whole-value escape observed
}

func (w *stateWalker) mark(field string) {
	if w.fields[field] {
		w.covered[field] = true
	}
}

func (w *stateWalker) isSchema(info *types.Info, e ast.Expr) bool {
	return typeKey(typeOf(info, e)) == w.sKey
}

// collectWrites records which schema fields a function body assigns.
func (w *stateWalker) collectWrites(fn *FlowFunc) {
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			if typeKey(typeOf(info, n)) != w.sKey {
				return true
			}
			positional := 0
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						w.mark(id.Name)
					}
				} else {
					positional++
				}
			}
			if positional > 0 && positional == len(w.fields) {
				w.all = true // full positional literal covers everything
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && w.isSchema(info, sel.X) {
					w.mark(sel.Sel.Name)
				}
			}
		}
		return true
	})
}

// collectReads records which schema fields a function body consumes.
func (w *stateWalker) collectReads(fn *FlowFunc) {
	info := fn.Pkg.Info
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if w.isSchema(info, n.X) {
				w.mark(n.Sel.Name)
			}
		case *ast.AssignStmt:
			// An S value stored into a struct field escapes whole — the
			// holder (r.resume = cp) may read any field later.
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && w.isSchema(info, rhs) {
					if sel, ok := ast.Unparen(n.Lhs[i]).(*ast.SelectorExpr); ok && !w.isSchema(info, sel.X) {
						w.all = true
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if w.isSchema(info, r) {
					w.all = true
				}
			}
		case *ast.CallExpr:
			// S handed to a function with no body in the program (gob
			// encoders, logging, ...) escapes the analysis.
			if w.prog.FuncOf(fn.Pkg, n) != nil {
				return true
			}
			for _, a := range n.Args {
				if w.isSchema(info, a) {
					w.all = true
				}
			}
		}
		return true
	})
}

// walk BFS-visits fn and every internal function reachable from it,
// applying collect to each body.
func (w *stateWalker) walk(fn *FlowFunc, collect func(*FlowFunc)) {
	visited := map[string]bool{fn.Key: true}
	queue := []*FlowFunc{fn}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		collect(cur)
		for _, ck := range w.prog.Callees[cur.Key] {
			if callee, ok := w.prog.Funcs[ck]; ok && !visited[ck] {
				visited[ck] = true
				queue = append(queue, callee)
			}
		}
	}
}

// missing returns the schema fields left uncovered, sorted.
func (w *stateWalker) missing(order []string) []string {
	if w.all {
		return nil
	}
	var out []string
	for _, f := range order {
		if !w.covered[f] {
			out = append(out, f)
		}
	}
	return out
}

// exportedFields lists S's exported field names in declaration order —
// the exact set encoding/gob persists.
func exportedFields(st *types.Struct) []string {
	var out []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Exported() {
			out = append(out, f.Name())
		}
	}
	return out
}

// consumerSchema extracts the snapshot struct a consumer applies: the
// first parameter whose type is a named struct (through one pointer)
// declared in the consumer's own package.
func consumerSchema(fn *FlowFunc) (*types.Named, *types.Struct) {
	if fn.Sig == nil {
		return nil, nil
	}
	for i := 0; i < fn.Sig.Params().Len(); i++ {
		named, st := namedStruct(fn.Sig.Params().At(i).Type())
		if named == nil || named.Obj().Pkg() == nil {
			continue
		}
		if named.Obj().Pkg().Path() != fn.Pkg.ImportPath {
			continue
		}
		return named, st
	}
	return nil, nil
}

// producesSchema reports whether any of fn's results is S or *S.
func producesSchema(fn *FlowFunc, sKey string) bool {
	if fn.Sig == nil {
		return false
	}
	for i := 0; i < fn.Sig.Results().Len(); i++ {
		if typeKey(fn.Sig.Results().At(i).Type()) == sKey {
			return true
		}
	}
	return false
}

func runStatecover(p *Pass) {
	if p.Program == nil {
		return
	}
	cfg := p.Config

	// Anchor on consumers declared in this package whose schema struct is
	// also local, so every diagnostic lands in this package's files.
	anchors := map[string]*schemaAnchor{}
	for _, fn := range p.Program.Funcs {
		if fn.Pkg.ImportPath != p.ImportPath || !cfg.statecoverConsumer(fn.Decl.Name.Name) {
			continue
		}
		named, st := consumerSchema(fn)
		if named == nil {
			continue
		}
		key := typeKey(named)
		a := anchors[key]
		if a == nil {
			fields := exportedFields(st)
			if len(fields) == 0 {
				continue
			}
			a = &schemaAnchor{
				key:      key,
				display:  fn.Pkg.Types.Name() + "." + named.Obj().Name(),
				fields:   fields,
				fieldSet: map[string]bool{},
			}
			for _, f := range fields {
				a.fieldSet[f] = true
			}
			anchors[key] = a
		}
		a.consumers = append(a.consumers, fn)
	}
	if len(anchors) == 0 {
		return
	}
	for _, fn := range p.Program.Funcs {
		if fn.Pkg.ImportPath != p.ImportPath || !cfg.statecoverProducer(fn.Decl.Name.Name) {
			continue
		}
		for _, a := range anchors {
			if producesSchema(fn, a.key) {
				a.producers = append(a.producers, fn)
			}
		}
	}

	keys := make([]string, 0, len(anchors))
	for k := range anchors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		a := anchors[k]
		sortFuncs(a.consumers)
		sortFuncs(a.producers)

		if len(a.producers) == 0 {
			for _, c := range a.consumers {
				p.Reportf(c.Decl.Name.Pos(),
					"%s has consumer %s but no producer named %s returns it; the checkpoint schema cannot be verified",
					a.display, c.Decl.Name.Name, strings.Join(cfg.Statecover.Producers, "/"))
			}
			continue
		}
		// Each producer must populate the full schema on its own: a
		// producer is the whole snapshot, not a contributor.
		for _, prod := range a.producers {
			w := &stateWalker{prog: p.Program, sKey: a.key, fields: a.fieldSet, covered: map[string]bool{}}
			w.walk(prod, w.collectWrites)
			if miss := w.missing(a.fields); len(miss) != 0 {
				p.Reportf(prod.Decl.Name.Pos(),
					"%s never sets %s of %s; the field checkpoints as its zero value",
					prod.Decl.Name.Name, fieldList(miss), a.display)
			}
		}
		for _, cons := range a.consumers {
			w := &stateWalker{prog: p.Program, sKey: a.key, fields: a.fieldSet, covered: map[string]bool{}}
			w.walk(cons, w.collectReads)
			if miss := w.missing(a.fields); len(miss) != 0 {
				p.Reportf(cons.Decl.Name.Pos(),
					"%s never reads %s of %s; that state is silently dropped on resume",
					cons.Decl.Name.Name, fieldList(miss), a.display)
			}
		}
	}
}

// sortFuncs orders FlowFuncs by source position for deterministic
// diagnostics.
func sortFuncs(fns []*FlowFunc) {
	sort.Slice(fns, func(i, j int) bool { return fns[i].Decl.Pos() < fns[j].Decl.Pos() })
}

// fieldList renders missing fields for a diagnostic.
func fieldList(fields []string) string {
	if len(fields) == 1 {
		return "field " + fields[0]
	}
	return fmt.Sprintf("fields %s", strings.Join(fields, ", "))
}
