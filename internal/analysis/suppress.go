package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// A suppression directive has the form
//
//	//lint:ignore passname[,passname...] reason
//
// and silences matching diagnostics on its own line (trailing comment)
// or on the line directly below (standalone comment). The reason is
// mandatory: an ignore without one is itself reported, so every
// suppression in the tree carries its justification. "*" matches every
// pass.
const ignorePrefix = "//lint:ignore"

type suppression struct {
	passes []string // parsed pass names, or ["*"]
}

func (s suppression) matches(pass string) bool {
	for _, p := range s.passes {
		if p == "*" || p == pass {
			return true
		}
	}
	return false
}

// suppressionIndex maps file → line → directives covering that line.
type suppressionIndex map[string]map[int][]suppression

func (idx suppressionIndex) suppressed(pass string, pos token.Position) bool {
	for _, s := range idx[pos.Filename][pos.Line] {
		if s.matches(pass) {
			return true
		}
	}
	return false
}

// buildSuppressions scans every comment in the files, returning the
// index plus diagnostics for malformed directives (missing pass list or
// missing reason).
func buildSuppressions(fset *token.FileSet, files []*ast.File) (suppressionIndex, []Diagnostic) {
	idx := make(suppressionIndex)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:     pos,
						Pass:    "tglint",
						Message: "malformed //lint:ignore directive: want \"//lint:ignore pass reason\"",
					})
					continue
				}
				var passes []string
				for _, p := range strings.Split(fields[0], ",") {
					p = strings.TrimSpace(p)
					if p == "" {
						continue
					}
					if p != "*" && ByName(p) == nil {
						bad = append(bad, Diagnostic{
							Pos:     pos,
							Pass:    "tglint",
							Message: "//lint:ignore names unknown pass \"" + p + "\"",
						})
					}
					passes = append(passes, p)
				}
				if len(passes) == 0 {
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]suppression)
					idx[pos.Filename] = byLine
				}
				s := suppression{passes: passes}
				// Cover the directive's own line (trailing form) and the
				// next line (standalone form above the offending code).
				byLine[pos.Line] = append(byLine[pos.Line], s)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], s)
			}
		}
	}
	return idx, bad
}

// annIndex maps file → line → annotation kinds covering that line; the
// //perf: and //sync: grammars share it.
type annIndex map[string]map[int]map[string]bool

// covered reports whether an annotation of the given kind covers pos.
func (idx annIndex) covered(kind string, pos token.Position) bool {
	return idx[pos.Filename][pos.Line][kind]
}

// buildAnnIndex is the shared directive scanner behind the //perf: and
// //sync: grammars: a directive is "<prefix><kind> <reason...>", the
// reason is mandatory, unknown kinds are findings, and a directive
// covers its own line plus the line below it (mirroring //lint:ignore).
func buildAnnIndex(fset *token.FileSet, files []*ast.File, prefix string, kinds map[string]bool, kindsHint, reportPass string) (annIndex, []Diagnostic) {
	idx := make(annIndex)
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, prefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, prefix)
				fields := strings.Fields(rest)
				if len(fields) == 0 || !kinds[fields[0]] {
					if reportPass != "" {
						kind := "(none)"
						if len(fields) > 0 {
							kind = fields[0]
						}
						bad = append(bad, Diagnostic{
							Pos:     pos,
							Pass:    reportPass,
							Message: "unknown " + prefix + " annotation kind " + kind + " (want " + kindsHint + ")",
						})
					}
					continue
				}
				if len(fields) < 2 {
					if reportPass != "" {
						bad = append(bad, Diagnostic{
							Pos:     pos,
							Pass:    reportPass,
							Message: "malformed " + prefix + fields[0] + " annotation: a reason is mandatory",
						})
					}
					continue
				}
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]map[string]bool)
					idx[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					kinds := byLine[line]
					if kinds == nil {
						kinds = make(map[string]bool)
						byLine[line] = kinds
					}
					kinds[fields[0]] = true
				}
			}
		}
	}
	return idx, bad
}
