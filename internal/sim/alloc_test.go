package sim

import (
	"io"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/telemetry"
	"thermogater/internal/workload"
)

// allocGateConfig is the steady-state shape the zero-allocation contract
// covers: no epoch trace, no VR tracking, no faults and no checkpoint
// sink — the physics loop that dominates sweep wall-clock — with or
// without a telemetry registry streaming JSONL records, as tgserve's
// jobs do. Everything the config leaves off allocates by design and is
// not part of the contract.
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
// With instrumented set, the run carries a registry and a JSONL sink to
// io.Discard, so the span tree, the counters and the per-epoch record
// encoding are all inside the measured window.
func testStepEpochAllocs(t *testing.T, policy core.PolicyKind, instrumented bool) {
	cfg := allocGateConfig(t, policy)
	if instrumented {
		cfg.Telemetry = telemetry.NewRegistry()
		cfg.Telemetry.AddSink(telemetry.NewJSONLSink(io.Discard))
	}
	r, err := New(cfg)
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
		t.Fatalf("%v (telemetry %v): %v allocations per steady-state epoch, want 0", policy, instrumented, avg)
	}
	if _, err := r.finishRun(); err != nil {
		t.Fatal(err)
	}
}

// TestStepEpochZeroAllocs gates the epoch loop under every built-in
// policy, so each governor branch is covered: off-chip and all-on (no
// gating), naive, the oracle policies that solve the PDN per decision,
// and the practical predictors. The telemetry subtests repeat every
// policy with the registry and a JSONL sink attached.
func TestStepEpochZeroAllocs(t *testing.T) {
	policies := []struct {
		name   string
		policy core.PolicyKind
	}{
		{"allon", core.AllOn},
		{"oracT", core.OracT},
		{"pracVT", core.PracVT},
		{"offchip", core.OffChip},
		{"naive", core.Naive},
		{"oracV", core.OracV},
		{"oracVT", core.OracVT},
		{"pracT", core.PracT},
	}
	for _, tc := range policies {
		t.Run(tc.name, func(t *testing.T) {
			testStepEpochAllocs(t, tc.policy, false)
		})
	}
	t.Run("telemetry", func(t *testing.T) {
		for _, tc := range policies {
			t.Run(tc.name, func(t *testing.T) {
				testStepEpochAllocs(t, tc.policy, true)
			})
		}
	})
}
