package pdn

import (
	"testing"

	"thermogater/internal/floorplan"
)

// hotspotCurrents is the even load scaled to a fifth with 40 A in the
// first logic block. The uniform layout is already optimal under the even
// load (the optimiser accepts no move there), so the tests of what moves
// do run under this load instead.
func hotspotCurrents(chip *floorplan.Chip) []float64 {
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
	return cur
}

func TestOptimizePlacementImproves(t *testing.T) {
	// Under the hotspot load the optimiser moves regulators. The moved
	// layout, read by a network built fresh on the moved chip, must be
	// what the optimiser reports and no noisier than the uniform one.
	chip := floorplan.MustPOWER8()
	n, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur := hotspotCurrents(chip)
	uniform, err := UniformPlacementNoise(floorplan.MustPOWER8(), DefaultConfig(), cur)
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimizePlacement(n, cur, 0.25, 6)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("optimiser accepted no move under the hotspot load")
	}
	if res.InitialMaxPct != uniform {
		t.Errorf("initial noise %v differs from uniform baseline %v", res.InitialMaxPct, uniform)
	}
	moved, err := UniformPlacementNoise(chip, DefaultConfig(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if moved != res.FinalMaxPct {
		t.Errorf("optimiser reports final noise %v; a fresh network on the moved chip reads %v", res.FinalMaxPct, moved)
	}
	if moved > res.InitialMaxPct+1e-12 {
		t.Errorf("optimisation worsened noise: %v -> %v", res.InitialMaxPct, moved)
	}

	// Section 5: under the even load the uniform placement is within 0.4%
	// (relative) of the optimal one — i.e. optimisation buys very little.
	chip = floorplan.MustPOWER8()
	if n, err = NewNetwork(chip, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	cur = loadedCurrents(chip)
	if uniform, err = UniformPlacementNoise(floorplan.MustPOWER8(), DefaultConfig(), cur); err != nil {
		t.Fatal(err)
	}
	if res, err = OptimizePlacement(n, cur, 0.25, 6); err != nil {
		t.Fatal(err)
	}
	if res.InitialMaxPct != uniform {
		t.Errorf("even load: initial noise %v differs from uniform baseline %v", res.InitialMaxPct, uniform)
	}
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
	res, err := OptimizePlacement(n, hotspotCurrents(chip), 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves == 0 {
		t.Fatal("optimiser accepted no move; the domain check below would test the unmoved layout")
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
	cur := hotspotCurrents(chip)
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
