// Package analysis is tglint's pass framework: a small, stdlib-only
// counterpart of golang.org/x/tools/go/analysis tailored to this
// repository's domain invariants. Thirteen passes ride on it:
//
//   - detcheck:   nondeterminism sources in simulation packages
//   - floatcheck: raw ==/!= on floating-point operands
//   - errsink:    dropped error results from solver / sink APIs
//   - aliascheck: exported methods leaking receiver-held scratch buffers
//   - invcheck:   stepping entry points detached from the tgsan hooks
//
// plus four passes built on the tgflow engine (cfg.go, callgraph.go,
// dataflow.go, summary.go):
//
//   - unitflow:   unit-suffix consistency (tempC vs tempK, W vs mW, ...),
//     read off suffixes and propagated across calls, fields and locals
//   - nanflow:    NaN taint from unchecked sources to persistent state sinks
//   - statecover: checkpoint State()/Restore() field-coverage verification
//   - cacheflush: topology/geometry mutations are followed by their flush
//
// plus the tgsync family policing synchronization lifecycles in the
// supervision layer (syncutil.go):
//
//   - lockorder:  whole-repo lock-acquisition ordering via held-set
//     abstract interpretation and per-function lock summaries; cycle
//     reports name both chains
//   - unlockpath: every Lock/RLock post-dominated by its matching
//     release (or defer) on all paths to return
//   - blockheld:  no channel waits, defaultless selects, sleeps, or
//     (interprocedurally) I/O while a lock is held
//   - golife:     every spawned goroutine, timer, and terminal job
//     transition has a reachable teardown / settle path
//
// The steady-state allocation contract is not a lint pass: the exact
// dynamic gate in internal/sim/alloc_test.go enforces it, and the race
// detector covers unsynchronized goroutine writes.
//
// Packages are loaded with go/parser and type-checked with go/types
// against the build cache's export data (see load.go), so the framework
// needs no module dependencies and no network. Diagnostics can be
// suppressed per line with
//
//	//lint:ignore <pass>[,<pass>...] <reason>
//
// on the offending line or the line directly above it (see suppress.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"sync"
)

// Analyzer is one named pass. Run receives a fully type-checked package
// and reports through Pass.Reportf.
type Analyzer struct {
	Name string // short lower-case name used in diagnostics and ignore directives
	Doc  string // one-line description
	Run  func(*Pass)

	// NeedsProgram marks interprocedural (tgflow) passes: the runner
	// builds one Program over every loaded package and exposes it via
	// Pass.Program. The pass still runs once per package and must report
	// only into that package's files; the program supplies the
	// cross-package call graph and summaries.
	NeedsProgram bool
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

// String renders the canonical "file:line:col: [pass] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// Pass is the per-(analyzer, package) invocation context handed to
// Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Config   *Config

	// ImportPath is the package's import path as reported by go list;
	// detcheck and errsink scope themselves with it.
	ImportPath string

	// Program is the whole-repo interprocedural context, set only for
	// analyzers with NeedsProgram.
	Program *Program

	diags []Diagnostic
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Pass:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil when the checker could not
// resolve it. Passes must tolerate nil: type information is best-effort
// when a package has errors.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return typeOf(p.Info, e)
}

// typeOf is TypeOf against a bare types.Info, shared with the tgflow
// machinery, which evaluates expressions in packages other than the one
// a Pass is reporting into.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf resolves the object a call expression's function refers to
// (function, method, or builtin), or nil.
func (p *Pass) ObjectOf(fun ast.Expr) types.Object {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return p.Info.ObjectOf(f)
	case *ast.SelectorExpr:
		return p.Info.ObjectOf(f.Sel)
	}
	return nil
}

// All returns the domain analyzers in their canonical order: unitflow,
// the five syntactic passes, the three other tgflow passes, then the
// four tgsync synchronization-lifecycle passes.
func All() []*Analyzer {
	return []*Analyzer{
		Unitflow, Detcheck, Floatcheck, Errsink, Aliascheck, Invcheck,
		Nanflow, Statecover, Cacheflush,
		Lockorder, Unlockpath, Blockheld, Golife,
	}
}

// ByName resolves a comma-less analyzer name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to every loaded package, filters suppressed
// diagnostics, and returns the rest sorted by position. Malformed
// suppression directives are themselves reported under the pass name
// "tglint". Packages are analyzed concurrently across GOMAXPROCS
// workers; the final sort keeps the output deterministic regardless of
// scheduling.
func Run(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Diagnostic {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	var prog *Program
	for _, a := range analyzers {
		if a.NeedsProgram {
			prog = BuildProgram(pkgs)
			prog.Config = cfg
			break
		}
	}

	perPkg := make([][]Diagnostic, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			idx, bad := buildSuppressions(pkg.Fset, pkg.Files)
			out := bad
			for _, a := range analyzers {
				pass := &Pass{
					Analyzer:   a,
					Fset:       pkg.Fset,
					Files:      pkg.Files,
					Pkg:        pkg.Types,
					Info:       pkg.Info,
					Config:     cfg,
					ImportPath: pkg.ImportPath,
					Program:    prog,
				}
				a.Run(pass)
				for _, d := range pass.diags {
					if !idx.suppressed(a.Name, d.Pos) {
						out = append(out, d)
					}
				}
			}
			perPkg[i] = out
		}(i, pkg)
	}
	wg.Wait()

	var out []Diagnostic
	for _, diags := range perPkg {
		out = append(out, diags...)
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders diagnostics by file, line, column, then pass —
// one canonical order regardless of scheduling.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
}
