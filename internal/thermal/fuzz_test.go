package thermal

import (
	"math"
	"testing"

	"thermogater/internal/floorplan"
	"thermogater/internal/workload"
)

// FuzzThermalStep drives the RC model with randomized power maps and step
// sizes inside the physical envelope (total dynamic power within the 150W
// TDP, per-VR conversion loss under 0.5W, ambient in a data-center range).
// Run it with -tags tgsan so the sanitizer acts as the oracle: CFL
// stability, ambient floor and NaN sweeps panic on the first violation. In
// the default build the explicit finiteness assertions below still hold.
func FuzzThermalStep(f *testing.F) {
	f.Add(uint64(1), 60.0, 0.25, 1.0, 4, 35.0)
	f.Add(uint64(7), 150.0, 0.5, 5.0, 2, 45.0)
	f.Add(uint64(42), 1.0, 0.0, 0.1, 8, 20.0)
	f.Fuzz(func(t *testing.T, seed uint64, totalW, vrW, dtMS float64, steps int, ambientC float64) {
		// Clamp to the physical envelope; absurd inputs are out of contract.
		if math.IsNaN(totalW) || totalW <= 0 || totalW > 150 {
			t.Skip("total power outside (0, 150W] TDP envelope")
		}
		if math.IsNaN(vrW) || vrW < 0 || vrW > 0.5 {
			t.Skip("per-VR loss outside [0, 0.5W] envelope")
		}
		if math.IsNaN(dtMS) || dtMS <= 0 || dtMS > 5 {
			t.Skip("step outside (0, 5ms] envelope")
		}
		if steps <= 0 || steps > 8 {
			t.Skip("step count outside (0, 8] envelope")
		}
		if math.IsNaN(ambientC) || ambientC < 15 || ambientC > 55 {
			t.Skip("ambient outside [15, 55]°C envelope")
		}

		chip := floorplan.MustPOWER8()
		cfg := DefaultConfig()
		cfg.AmbientC = ambientC
		m, err := NewModel(chip, cfg)
		if err != nil {
			t.Fatalf("NewModel: %v", err)
		}

		// Random non-negative power map normalized to totalW, plus a random
		// per-VR loss in [0, vrW].
		rng := workload.NewRNG(seed)
		blockPower := make([]float64, len(chip.Blocks))
		var sum float64
		for i := range blockPower {
			blockPower[i] = rng.Float64()
			sum += blockPower[i]
		}
		for i := range blockPower {
			blockPower[i] *= totalW / sum
		}
		vrPower := make([]float64, len(chip.Regulators))
		for i := range vrPower {
			vrPower[i] = rng.Float64() * vrW
		}
		if err := m.SetPower(blockPower, vrPower); err != nil {
			t.Fatalf("SetPower: %v", err)
		}

		for s := 0; s < steps; s++ {
			if err := m.Step(dtMS * 1e-3); err != nil {
				t.Fatalf("Step %d: %v", s, err)
			}
		}
		max, at, _ := m.Extremes()
		if math.IsNaN(max) || math.IsInf(max, 0) {
			t.Fatalf("hottest node = %v at %s after %d steps", max, at, steps)
		}
		if max < ambientC-0.1 {
			t.Fatalf("MaxTemp %v°C below ambient %v°C", max, ambientC)
		}
	})
}
