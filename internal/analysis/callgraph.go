package analysis

// callgraph.go — the whole-repo view the interprocedural (tgflow)
// passes run on. A Program owns every loaded package, one FlowFunc per
// declared function/method body, the direct call graph between them,
// and the bottom-up SCC order the summary engine (summary.go) consumes.
//
// Cross-package identity: each package is type-checked independently
// against export data, so a callee in package B resolves — from A's
// type info — to a *types.Func belonging to the *imported* image of B,
// a different object than B's own source-checked one. Functions are
// therefore keyed by a canonical string (FuncKey) built from the import
// path, receiver type name, and function name, which is identical on
// both sides.
//
// Limitations (documented in docs/STATIC_ANALYSIS.md): calls through
// function values, interface methods, and goroutine/defer thunks are
// not edges; the flow passes treat their results conservatively.

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// FlowFunc is one function or method with a body somewhere in the
// loaded program.
type FlowFunc struct {
	Key  string
	Decl *ast.FuncDecl
	Pkg  *Package
	Obj  *types.Func
	Sig  *types.Signature

	cfgOnce sync.Once
	cfg     *CFG
}

// CFG returns the function's control-flow graph, built on first use.
func (f *FlowFunc) CFG() *CFG {
	f.cfgOnce.Do(func() { f.cfg = BuildCFG(f.Decl) })
	return f.cfg
}

// Program is the interprocedural context shared by the tgflow passes.
type Program struct {
	Pkgs  []*Package
	Funcs map[string]*FlowFunc

	// Config is the active tglint configuration; the summary engines
	// need it (sink packages, guard names) before any Pass exists.
	Config *Config

	// Callees maps a function key to the sorted keys it calls directly —
	// including external (body-less) callees such as math.Log, which the
	// taint tables match by key.
	Callees map[string][]string
	// Callers is the reverse adjacency, internal keys only.
	Callers map[string][]string

	// sccs lists the call graph's strongly connected components in
	// bottom-up order: every SCC appears after all SCCs it calls into.
	sccs [][]*FlowFunc

	unitOnce  sync.Once
	unitSums  map[string]*unitSummary
	taintOnce sync.Once
	taintSums map[string]*taintSummary
	blockOnce sync.Once
	blockSums map[string]*blockFact
}

// FuncKey canonically names a function object across packages:
// "path.Name" for package functions, "path.(Recv).Name" for methods
// (pointer and value receivers share the key; Go forbids both spellings
// of the same method name on one type).
func FuncKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name() // builtins (error.Error, ...)
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		// Interface receiver or unnamed type: fall back to the name
		// (never an internal edge — no body exists under this key).
		return fn.Pkg().Path() + ".(?)." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// BuildProgram indexes the packages' function bodies and the direct
// call edges between them.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:    pkgs,
		Funcs:   make(map[string]*FlowFunc),
		Callees: make(map[string][]string),
		Callers: make(map[string][]string),
	}
	for _, pkg := range pkgs {
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
				sig, _ := obj.Type().(*types.Signature)
				key := FuncKey(obj)
				p.Funcs[key] = &FlowFunc{Key: key, Decl: fd, Pkg: pkg, Obj: obj, Sig: sig}
			}
		}
	}
	for key, fn := range p.Funcs {
		seen := map[string]bool{}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(fn.Pkg, call)
			if callee == nil {
				return true
			}
			ck := FuncKey(callee)
			if !seen[ck] {
				seen[ck] = true
				p.Callees[key] = append(p.Callees[key], ck)
			}
			return true
		})
		sort.Strings(p.Callees[key])
	}
	for key, callees := range p.Callees {
		for _, ck := range callees {
			if _, internal := p.Funcs[ck]; internal {
				p.Callers[ck] = append(p.Callers[ck], key)
			}
		}
	}
	for _, callers := range p.Callers {
		sort.Strings(callers)
	}
	p.buildSCCs()
	return p
}

// calleeFunc resolves a call expression to the function object it
// invokes, or nil for indirect calls, conversions, and builtins.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = pkg.Info.ObjectOf(fun.Sel)
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// FuncOf returns the FlowFunc a package's call expression resolves to,
// or nil when the callee has no body in the program.
func (p *Program) FuncOf(pkg *Package, call *ast.CallExpr) *FlowFunc {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return nil
	}
	return p.Funcs[FuncKey(fn)]
}

// buildSCCs runs Tarjan's algorithm over the internal call edges.
// Tarjan emits each SCC only after every SCC reachable from it, so the
// natural emission order is already bottom-up (callees first).
func (p *Program) buildSCCs() {
	keys := make([]string, 0, len(p.Funcs))
	for k := range p.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic traversal order

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range p.Callees[v] {
			if _, internal := p.Funcs[w]; !internal {
				continue
			}
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*FlowFunc
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, p.Funcs[w])
				if w == v {
					break
				}
			}
			sort.Slice(scc, func(i, j int) bool { return scc[i].Key < scc[j].Key })
			p.sccs = append(p.sccs, scc)
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}
}

// SCCs returns the call graph's strongly connected components in
// bottom-up order (callees before callers).
func (p *Program) SCCs() [][]*FlowFunc { return p.sccs }

// EdgeList renders the internal call graph as sorted "caller -> callee"
// lines (external callees included), for the golden-file tests.
func (p *Program) EdgeList() []string {
	var out []string
	for key, callees := range p.Callees {
		for _, ck := range callees {
			out = append(out, key+" -> "+ck)
		}
	}
	sort.Strings(out)
	return out
}

// pkgByPath finds a loaded package by import path.
func (p *Program) pkgByPath(path string) *Package {
	for _, pkg := range p.Pkgs {
		if pkg.ImportPath == path {
			return pkg
		}
	}
	return nil
}
