// Command tglint runs the repository's thirteen domain-aware
// static-analysis passes — five syntactic ones (detcheck, floatcheck,
// errsink, aliascheck, invcheck), four tgflow passes (unitflow,
// nanflow, statecover, cacheflush), and the tgsync
// synchronization-lifecycle family (lockorder, unlockpath, blockheld,
// golife); see docs/STATIC_ANALYSIS.md — over go list package patterns:
//
//	tglint ./...
//	tglint -passes floatcheck,errsink ./internal/thermal
//	tglint -json ./... > findings.json
//
// Diagnostics print as "file:line:col: [pass] message", or with -json
// as a JSON array of {file,line,col,pass,message} objects (an empty
// array on a clean tree) for CI artifact collection and the GitHub
// problem matcher. The process exits 1 when any unsuppressed
// diagnostic is found, 2 on usage or load failure, and 0 on a clean
// tree, so `make verify` and CI can gate on it. The passes run with
// analysis.DefaultConfig.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"thermogater/internal/analysis"
)

// jsonDiagnostic is the -json output schema, kept in lockstep with
// .github/tglint-problem-matcher.json.
type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tglint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		passList = fs.String("passes", "", "comma-separated subset of passes to run (default: all)")
		list     = fs.Bool("list", false, "list available passes and exit")
		jsonOut  = fs.Bool("json", false, "emit diagnostics as a JSON array instead of plain text")
		verbose  = fs.Bool("v", false, "also print soft type-check errors")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tglint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers := analysis.All()
	if *passList != "" {
		analyzers = nil
		for _, name := range strings.Split(*passList, ",") {
			a := analysis.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "tglint: unknown pass %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "tglint: %v\n", err)
		return 2
	}
	pkgs, err := analysis.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "tglint: %v\n", err)
		return 2
	}
	if *verbose {
		for _, pkg := range pkgs {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "tglint: %s: type-check: %v\n", pkg.ImportPath, terr)
			}
		}
	}
	diags := analysis.Run(pkgs, analyzers, analysis.DefaultConfig())
	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:    relName(cwd, d.Pos.Filename),
				Line:    d.Pos.Line,
				Col:     d.Pos.Column,
				Pass:    d.Pass,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "tglint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", relName(cwd, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "tglint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}

// relName shortens a diagnostic path to be cwd-relative when possible.
func relName(cwd, name string) string {
	if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}
