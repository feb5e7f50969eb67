package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
)

// Package is one loaded, parsed, and (best-effort) type-checked target.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info

	// TypeErrors collects soft type-check failures. Passes still run with
	// whatever information survived; the driver surfaces these only in
	// verbose mode so a half-broken tree can still be linted.
	TypeErrors []error
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList expands the patterns relative to dir with `go list -e -deps
// -export`, returning every emitted entry (targets and dependencies
// alike) with the compiler export data path, which forces a (cached)
// compile of every dependency.
func goList(dir string, patterns []string) ([]listPackage, error) {
	args := []string{"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Error", "--"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var all []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		all = append(all, p)
	}
	return all, nil
}

// Load expands the go list patterns (e.g. "./...") relative to dir,
// parses every non-test Go file of each matched package, and type-checks
// it. Imports — stdlib and module-internal alike — are resolved from the
// compiler export data `go list -export` places in the build cache, so
// loading works offline and never re-type-checks dependencies from
// source. Targets are parsed and checked concurrently across GOMAXPROCS
// workers with deterministic result order. Test files are not loaded:
// tglint's passes lint production code only.
func Load(dir string, patterns []string) ([]*Package, error) {
	all, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	var targets []listPackage
	for _, p := range all {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no packages matched %v", patterns)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}

	// Parse and type-check targets in parallel. The FileSet's methods are
	// internally synchronized, so one fset serves every worker; the gc
	// export-data importer's package cache is NOT documented thread-safe,
	// so each worker owns a private importer (it still amortizes export
	// reads across that worker's share of the targets). Results land in a
	// position-indexed slice, keeping output order — and thus diagnostic
	// order — identical to the sequential loader's.
	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(targets) {
		workers = len(targets)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			imp := importer.ForCompiler(fset, "gc", lookup)
			for i := range next {
				pkgs[i], errs[i] = checkTarget(fset, imp, targets[i])
			}
		}()
	}
	for i := range targets {
		next <- i
	}
	close(next)
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// checkTarget parses and type-checks one go list target. imp must not be
// shared across goroutines.
func checkTarget(fset *token.FileSet, imp types.Importer, t listPackage) (*Package, error) {
	if t.Error != nil && len(t.GoFiles) == 0 {
		return nil, fmt.Errorf("package %s: %s", t.ImportPath, t.Error.Err)
	}
	pkg := &Package{ImportPath: t.ImportPath, Dir: t.Dir, Fset: fset}
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", name, err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check never fails hard: the Error hook swallows problems so the
	// passes can run on partial information.
	pkg.Types, _ = conf.Check(t.ImportPath, fset, pkg.Files, pkg.Info)
	return pkg, nil
}
