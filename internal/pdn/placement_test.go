package pdn

import (
	"testing"

	"thermogater/internal/floorplan"
)

func TestOptimizePlacementImproves(t *testing.T) {
	chip := floorplan.MustPOWER8()
	n, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur := loadedCurrents(chip)
	uniform, err := UniformPlacementNoise(floorplan.MustPOWER8(), DefaultConfig(), cur)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizePlacement(n, cur, 0.25, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalMaxPct > res.InitialMaxPct+1e-12 {
		t.Errorf("optimisation worsened noise: %v -> %v", res.InitialMaxPct, res.FinalMaxPct)
	}
	if res.InitialMaxPct != uniform {
		t.Errorf("initial noise %v differs from uniform baseline %v", res.InitialMaxPct, uniform)
	}
	// Section 5: the uniform placement is within 0.4% (relative) of the
	// optimal one — i.e. optimisation buys very little.
	if rel := (uniform - res.FinalMaxPct) / uniform; rel > 0.05 {
		t.Errorf("optimisation improved noise by %.1f%%; the uniform layout should already be near-optimal", 100*rel)
	}
	if res.Iterations < 1 {
		t.Error("no passes recorded")
	}
}

func TestOptimizePlacementKeepsRegulatorsInDomains(t *testing.T) {
	chip := floorplan.MustPOWER8()
	n, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur := loadedCurrents(chip)
	if _, err := OptimizePlacement(n, cur, 0.5, 3); err != nil {
		t.Fatal(err)
	}
	for _, r := range chip.Regulators {
		if !chip.Domains[r.Domain].Bounds.Contains(r.Pos) {
			t.Errorf("regulator %d escaped its domain", r.ID)
		}
	}
	if err := chip.Validate(); err != nil {
		t.Errorf("chip invalid after optimisation: %v", err)
	}
}

func TestOptimizePlacementValidation(t *testing.T) {
	chip := floorplan.MustPOWER8()
	n, _ := NewNetwork(chip, DefaultConfig())
	cur := loadedCurrents(chip)
	if _, err := OptimizePlacement(n, cur, 0, 3); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := OptimizePlacement(n, cur[:4], 0.5, 3); err == nil {
		t.Error("short current vector accepted")
	}
}

// TestOptimizePlacementLeavesNoStaleMemo: after the optimiser has moved
// regulators, every domain's noise under the all-on mask and under one
// gated mask must equal, bit for bit, that of a network built fresh on
// the moved chip. A rebuildPaths that keeps the mask memo, or a move
// evaluated without rebuilding the paths, shows up here: either the
// solves read stale resistances or the optimiser never sees a move pay.
func TestOptimizePlacementLeavesNoStaleMemo(t *testing.T) {
	chip := floorplan.MustPOWER8()
	n, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The uniform layout is already optimal under the even load, so
	// concentrate current in one logic block to make moves pay.
	cur := loadedCurrents(chip)
	for i := range cur {
		cur[i] *= 0.2
	}
	for _, b := range chip.Blocks {
		if b.Kind == floorplan.Logic {
			cur[b.ID] = 40
			break
		}
	}
	res, err := OptimizePlacement(n, cur, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("optimiser accepted no move; the comparison below would not exercise a rebuild")
	}
	fresh, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for di := range chip.Domains {
		gated := n.AllOnMask(di)
		gated[0] = len(gated) == 1 // keep a lone regulator on
		for _, mask := range [][]bool{n.AllOnMask(di), gated} {
			got, err := n.SteadyNoise(di, cur, mask)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.SteadyNoise(di, cur, mask)
			if err != nil {
				t.Fatal(err)
			}
			if got.MaxPct != want.MaxPct || got.MaxBlock != want.MaxBlock {
				t.Fatalf("domain %d mask %v: optimised network %v@%d, fresh %v@%d",
					di, mask, got.MaxPct, got.MaxBlock, want.MaxPct, want.MaxBlock)
			}
			for bi := range want.PerBlockPct {
				if got.PerBlockPct[bi] != want.PerBlockPct[bi] {
					t.Fatalf("domain %d mask %v block %d: optimised network %v, fresh %v",
						di, mask, bi, got.PerBlockPct[bi], want.PerBlockPct[bi])
				}
			}
		}
	}
}
