package sim

import (
	"fmt"
	"math"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/invariant"
	"thermogater/internal/workload"
)

// refBlockPowerScaled is blockPowerScaled as it stood when it evaluated
// leakage from the temperatures itself, kept verbatim.
func refBlockPowerScaled(r *Runner, activity, temps, dst []float64) ([]float64, error) {
	dyn, err := r.pm.Dynamic(activity, dst)
	if err != nil {
		return nil, err
	}
	if len(temps) != len(dyn) {
		return nil, fmt.Errorf("sim: %d temperatures for %d blocks", len(temps), len(dyn))
	}
	for i := range dyn {
		dyn[i] = dyn[i]*r.dynScale[i] + r.pm.LeakageAt(i, temps[i])*r.leakScale[i]
	}
	return dyn, nil
}

// TestBlockPowerFromSharedLeakage: a power map built from a leakage
// vector evaluated once equals, bit for bit, the map the reference builds
// by evaluating leakage per use, under random DVFS scale factors.
func TestBlockPowerFromSharedLeakage(t *testing.T) {
	bench, err := workload.ByName("raytrace")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(DefaultConfig(core.PracVT, bench))
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(5)
	n := len(r.chip.Blocks)
	act, temps := make([]float64, n), make([]float64, n)
	leak, got, want := make([]float64, n), make([]float64, n), make([]float64, n)
	for round := 0; round < 20; round++ {
		for i := range act {
			act[i] = 1.2*rng.Float64() - 0.1 // includes out-of-range activity
			temps[i] = 45 + 60*rng.Float64()
			r.dynScale[i] = 0.5 + rng.Float64()
			r.leakScale[i] = 0.5 + rng.Float64()
		}
		if _, err := r.pm.Leakage(temps, leak); err != nil {
			t.Fatal(err)
		}
		if _, err := r.blockPowerScaled(act, leak, got); err != nil {
			t.Fatal(err)
		}
		if _, err := refBlockPowerScaled(r, act, temps, want); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("round %d block %d: %v W, reference %v W", round, i, got[i], want[i])
			}
		}
	}
	if _, err := r.blockPowerScaled(act, leak[:n-1], got); err == nil {
		t.Error("a short leakage vector was accepted")
	}
}

// TestLeakageReuseSanitized runs under -tags tgsan. A healthy run never
// trips the leakage-reuse check, because substep 0's block temperatures
// equal the epoch-start ones its reused leakage was evaluated on; and the
// check does fire once the thermal field moves after that evaluation.
func TestLeakageReuseSanitized(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("the leakage-reuse check is compiled in by -tags tgsan")
	}
	var reuse []invariant.Violation
	defer invariant.SetHandler(func(v invariant.Violation) {
		if v.Check == "leakage-reuse" {
			reuse = append(reuse, v)
		}
	})()

	bench, err := workload.ByName("lu_ncb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(core.OracVT, bench)
	cfg.DurationMS = 40
	cfg.WarmupEpochs = 10
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(reuse) != 0 {
		t.Fatalf("healthy run tripped the leakage-reuse check: %+v", reuse[0])
	}

	// Evaluate leakage on the current field, then move the field.
	if err := r.refreshLeakage(); err != nil {
		t.Fatal(err)
	}
	r.tm.Reset(r.blockTemps[0] + 1)
	r.sanitizeLeakageReuse()
	if len(reuse) != 1 {
		t.Fatalf("moved field reported %d leakage-reuse violations, want 1", len(reuse))
	}
}
