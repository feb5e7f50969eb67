package sim

import (
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/workload"
)

// allocGateConfig is the steady-state shape the zero-allocation contract
// covers: no telemetry registry, no epoch trace, no VR tracking, no
// faults and no checkpoint sink — the pure physics loop that dominates
// sweep wall-clock. Everything the config leaves off is an annotated
// //perf:alloc exception in the source, not part of the contract.
func allocGateConfig(t *testing.T, policy core.PolicyKind) Config {
	t.Helper()
	bench, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(policy, bench)
	cfg.DurationMS = 120
	cfg.WarmupEpochs = 10
	return cfg
}

// testStepEpochAllocs drives the epoch loop directly: beginRun, a warm-up
// stretch long enough to fill every scratch buffer, grow the uarch frame
// slices and pass the worst-noise transient, then testing.AllocsPerRun
// over single epochs. The simulation is deterministic per seed, so the
// measured window is reproducible — this is a hard gate, not a heuristic.
func testStepEpochAllocs(t *testing.T, policy core.PolicyKind) {
	r, err := New(allocGateConfig(t, policy))
	if err != nil {
		t.Fatal(err)
	}
	if policy == core.PracT || policy == core.PracVT {
		theta, err := r.profileTheta()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.gov.SetTheta(theta); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.beginRun(); err != nil {
		t.Fatal(err)
	}

	const warmEpochs = 60
	const runs = 40
	e := r.runStart
	for ; e < warmEpochs; e++ {
		if err := r.stepEpoch(e); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun invokes the body runs+1 times (one warm-up call).
	if e+runs+1 > r.runNEpochs {
		t.Fatalf("config too short: need %d epochs, have %d", e+runs+1, r.runNEpochs)
	}
	avg := testing.AllocsPerRun(runs, func() {
		if err := r.stepEpoch(e); err != nil {
			t.Fatal(err)
		}
		e++
	})
	if avg != 0 {
		t.Fatalf("%v: %v allocations per steady-state epoch, want 0", policy, avg)
	}
	if _, err := r.finishRun(); err != nil {
		t.Fatal(err)
	}
}

// TestStepEpochZeroAllocs gates the epoch loop across the policy cost
// spectrum: no decision work, oracle PDN solving, practical predictor.
func TestStepEpochZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy core.PolicyKind
	}{
		{"allon", core.AllOn},
		{"oracT", core.OracT},
		{"pracVT", core.PracVT},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testStepEpochAllocs(t, tc.policy)
		})
	}
}
