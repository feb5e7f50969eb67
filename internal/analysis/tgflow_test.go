package analysis

// Tests for the tgflow engine: golden-file checks of the CFG builder
// and call-graph indexer over testdata/src/tgflow, the bottom-up SCC
// contract, and fixture runs of the three interprocedural passes.
// Regenerate goldens with
//
//	go test ./internal/analysis -run Golden -update

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update %s: %v", name, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", name, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch (run with -update after verifying):\n--- want ---\n%s\n--- got ---\n%s",
			name, want, got)
	}
}

func TestCFGGolden(t *testing.T) {
	pkg := loadFixture(t, "tgflow")
	prog := BuildProgram([]*Package{pkg})
	var sb strings.Builder
	for _, fn := range packageFuncs(prog, pkg) {
		sb.WriteString(fn.CFG().String())
		sb.WriteString("\n")
	}
	checkGolden(t, "tgflow_cfg.golden", sb.String())
}

func TestCallGraphGolden(t *testing.T) {
	pkg := loadFixture(t, "tgflow")
	prog := BuildProgram([]*Package{pkg})
	got := strings.Join(prog.EdgeList(), "\n") + "\n"
	checkGolden(t, "tgflow_callgraph.golden", got)
}

// TestSCCBottomUp pins the summary engine's foundational contract:
// every SCC appears after all SCCs it calls into, and the even/odd
// recursion pair lands in one component.
func TestSCCBottomUp(t *testing.T) {
	pkg := loadFixture(t, "tgflow")
	prog := BuildProgram([]*Package{pkg})

	sccIndex := map[string]int{}
	for i, scc := range prog.SCCs() {
		for _, fn := range scc {
			sccIndex[fn.Key] = i
		}
	}
	if len(sccIndex) != len(prog.Funcs) {
		t.Fatalf("SCCs cover %d functions, program has %d", len(sccIndex), len(prog.Funcs))
	}
	for caller, callees := range prog.Callees {
		for _, callee := range callees {
			ci, ok := sccIndex[callee]
			if !ok {
				continue // external callee
			}
			if ci > sccIndex[caller] {
				t.Errorf("SCC order not bottom-up: callee %s (scc %d) after caller %s (scc %d)",
					callee, ci, caller, sccIndex[caller])
			}
		}
	}

	evenIdx, okE := sccIndex["thermogater/internal/analysis/testdata/src/tgflow.even"]
	oddIdx, okO := sccIndex["thermogater/internal/analysis/testdata/src/tgflow.odd"]
	if !okE || !okO {
		t.Fatalf("even/odd not found in SCC index; keys: %v", sccIndex)
	}
	if evenIdx != oddIdx {
		t.Errorf("mutual recursion split across SCCs: even in %d, odd in %d", evenIdx, oddIdx)
	}
	if scc := prog.SCCs()[evenIdx]; len(scc) != 2 {
		t.Errorf("even/odd SCC has %d members, want 2", len(scc))
	}
}

func TestUnitflowFixture(t *testing.T)   { checkFixture(t, Unitflow, "unitflow") }
func TestNanflowFixture(t *testing.T)    { checkFixture(t, Nanflow, "nanflow/sim") }
func TestStatecoverFixture(t *testing.T) { checkFixture(t, Statecover, "statecover/ckpt") }
func TestCacheflushFixture(t *testing.T) { checkFixture(t, Cacheflush, "cacheflush/cache") }
