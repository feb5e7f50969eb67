package experiments

import (
	"fmt"
	"strings"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/sim"
	"thermogater/internal/workload"
)

// TestSweepKeepGoingRecordsFailures poisons exactly one sweep cell and
// checks the failure contract: the sweep finishes, the poisoned cell
// appears in Failures with its root cause, the returned error names it,
// and every other cell still holds a result.
func TestSweepKeepGoingRecordsFailures(t *testing.T) {
	opts := testOptions()
	opts.Mutate = func(policy core.PolicyKind, bench workload.Profile, cfg *sim.Config) {
		if bench.Name == "fft" {
			// Shorter than its own warm-up: fails deterministically.
			cfg.DurationMS = 10
			cfg.WarmupEpochs = 50
		}
	}
	sw, err := RunSweep([]core.PolicyKind{core.AllOn}, opts)
	if sw == nil {
		t.Fatalf("sweep with one failed cell returned no partial results: %v", err)
	}
	want := fmt.Sprintf("1 of %d cells failed", len(workload.Suite()))
	if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "fft") {
		t.Errorf("error %v does not name the failure count and the failed cell", err)
	}
	if len(sw.Failures) != 1 {
		t.Fatalf("%d failures recorded, want 1: %v", len(sw.Failures), sw.Failures)
	}
	f := sw.Failures[0]
	if f.Benchmark != "fft" || f.Policy != core.AllOn.String() {
		t.Errorf("failure recorded for %s/%s, want fft/%s", f.Benchmark, f.Policy, core.AllOn)
	}
	if !strings.Contains(f.Err, "warm-up") {
		t.Errorf("failure text %q does not carry the root cause", f.Err)
	}
	if _, err := sw.Get("fft", core.AllOn); err == nil {
		t.Error("failed cell still has a result")
	}
	for _, b := range BenchmarkOrder() {
		if b == "fft" {
			continue
		}
		if _, err := sw.Get(b, core.AllOn); err != nil {
			t.Errorf("healthy cell %s missing after tolerant sweep: %v", b, err)
		}
	}
}

// TestSweepKeepGoingReportsEachFailureExactlyOnce poisons two cells across
// two policies: the sweep must report each failed cell exactly once, and
// no healthy cell may appear among them.
func TestSweepKeepGoingReportsEachFailureExactlyOnce(t *testing.T) {
	opts := testOptions()
	poison := map[string]bool{"fft": true, "lu_ncb": true}
	opts.Mutate = func(policy core.PolicyKind, bench workload.Profile, cfg *sim.Config) {
		if poison[bench.Name] && policy == core.AllOn {
			cfg.DurationMS = 10
			cfg.WarmupEpochs = 50
		}
	}
	sw, err := RunSweep([]core.PolicyKind{core.AllOn, core.OracT}, opts)
	if sw == nil {
		t.Fatalf("tolerant sweep returned no partial results: %v", err)
	}
	if err == nil {
		t.Error("sweep with failed cells returned no error")
	}
	if len(sw.Failures) != 2 {
		t.Fatalf("%d failures recorded, want 2: %v", len(sw.Failures), sw.Failures)
	}
	seen := map[string]int{}
	for _, f := range sw.Failures {
		if f.Policy != core.AllOn.String() {
			t.Errorf("healthy policy %s reported failed for %s", f.Policy, f.Benchmark)
		}
		if !poison[f.Benchmark] {
			t.Errorf("healthy cell %s/%s reported failed", f.Benchmark, f.Policy)
		}
		seen[f.Benchmark+"/"+f.Policy]++
	}
	for cell, n := range seen {
		if n != 1 {
			t.Errorf("cell %s reported %d times, want exactly once", cell, n)
		}
	}
	// Failures are sorted for deterministic reporting.
	if len(sw.Failures) == 2 && sw.Failures[0].Benchmark > sw.Failures[1].Benchmark {
		t.Errorf("failures not sorted: %v", sw.Failures)
	}
	// The poisoned cells hold no result; every other cell does.
	for _, b := range BenchmarkOrder() {
		for _, p := range []core.PolicyKind{core.AllOn, core.OracT} {
			_, err := sw.Get(b, p)
			broken := poison[b] && p == core.AllOn
			if broken && err == nil {
				t.Errorf("failed cell %s/%s still has a result", b, p)
			}
			if !broken && err != nil {
				t.Errorf("healthy cell %s/%s missing: %v", b, p, err)
			}
		}
	}
}

// TestSweepRecoversPanic wires a panicking ranking callback into one cell
// and checks the panic is contained: it becomes a recorded failure, not a
// crashed test binary.
func TestSweepRecoversPanic(t *testing.T) {
	opts := testOptions()
	opts.Mutate = func(policy core.PolicyKind, bench workload.Profile, cfg *sim.Config) {
		if bench.Name == "fft" {
			cfg.Policy = core.Custom
			cfg.Governor.CustomRank = func(domain int, in *core.Inputs, demandA float64, count int) []int {
				panic("injected ranking panic")
			}
		}
	}
	sw, err := RunSweep([]core.PolicyKind{core.AllOn}, opts)
	if sw == nil {
		t.Fatalf("sweep returned no partial results on a contained panic: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "injected ranking panic") {
		t.Errorf("error %v does not carry the panic value", err)
	}
	if len(sw.Failures) != 1 {
		t.Fatalf("%d failures recorded, want 1: %v", len(sw.Failures), sw.Failures)
	}
	if !strings.Contains(sw.Failures[0].Err, "injected ranking panic") {
		t.Errorf("failure text %q does not carry the panic value", sw.Failures[0].Err)
	}
}

// TestSweepAllCellsFailed: tolerance must not turn a totally broken
// campaign into a silent empty sweep.
func TestSweepAllCellsFailed(t *testing.T) {
	opts := testOptions()
	opts.Mutate = func(policy core.PolicyKind, bench workload.Profile, cfg *sim.Config) {
		cfg.EpochMS = -1 // rejected by Validate in every cell
	}
	sw, err := RunSweep([]core.PolicyKind{core.AllOn}, opts)
	if err == nil {
		t.Fatal("sweep with zero surviving cells reported success")
	}
	if sw == nil {
		t.Fatalf("sweep returned no partial results: %v", err)
	}
	if n := len(workload.Suite()); len(sw.Failures) != n {
		t.Errorf("%d failures recorded, want all %d cells", len(sw.Failures), n)
	}
}
