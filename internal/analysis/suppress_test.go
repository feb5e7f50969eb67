package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseSrc(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f
}

func TestSuppressionForms(t *testing.T) {
	fset, f := parseSrc(t, `package p

func f() {
	_ = 1 //lint:ignore floatcheck trailing form
	//lint:ignore detcheck,errsink standalone form covers the next line
	_ = 2
	//lint:ignore * wildcard form
	_ = 3
}
`)
	idx, bad := buildSuppressions(fset, []*ast.File{f})
	if len(bad) != 0 {
		t.Fatalf("unexpected malformed diagnostics: %v", bad)
	}
	check := func(pass string, line int, want bool) {
		t.Helper()
		got := idx.suppressed(pass, token.Position{Filename: "fixture.go", Line: line})
		if got != want {
			t.Errorf("suppressed(%s, line %d) = %v, want %v", pass, line, got, want)
		}
	}
	check("floatcheck", 4, true)  // trailing comment, same line
	check("unitflow", 4, false)   // wrong pass
	check("detcheck", 6, true)    // standalone above
	check("errsink", 6, true)     // second pass in the list
	check("floatcheck", 6, false) // not listed
	check("unitflow", 8, true)    // wildcard
	check("floatcheck", 10, false)
}

func TestSuppressionMalformed(t *testing.T) {
	fset, f := parseSrc(t, `package p

func f() {
	_ = 1 //lint:ignore floatcheck
	//lint:ignore nosuchpass some reason
	_ = 2
}
`)
	_, bad := buildSuppressions(fset, []*ast.File{f})
	if len(bad) != 2 {
		t.Fatalf("got %d malformed diagnostics, want 2: %v", len(bad), bad)
	}
	if !strings.Contains(bad[0].Message, "malformed") {
		t.Errorf("first diagnostic %q should mention malformed", bad[0].Message)
	}
	if !strings.Contains(bad[1].Message, "unknown pass") {
		t.Errorf("second diagnostic %q should mention unknown pass", bad[1].Message)
	}
	for _, d := range bad {
		if d.Pass != "tglint" {
			t.Errorf("malformed-directive diagnostic attributed to %q, want tglint", d.Pass)
		}
	}
}
