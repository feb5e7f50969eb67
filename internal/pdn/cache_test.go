package pdn

import (
	"testing"

	"thermogater/internal/floorplan"
)

// TestEffCacheHitsAreBitIdentical: noise profiles served from the memo
// must match the first, freshly computed one exactly, bit for bit.
func TestEffCacheHitsAreBitIdentical(t *testing.T) {
	chip := floorplan.MustPOWER8()
	n, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur := loadedCurrents(chip)
	mask := n.AllOnMask(0)
	mask[2] = false

	first, err := n.SteadyNoise(0, cur, mask)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		again, err := n.SteadyNoise(0, cur, mask)
		if err != nil {
			t.Fatal(err)
		}
		if again.MaxPct != first.MaxPct || again.MaxBlock != first.MaxBlock {
			t.Fatalf("cached max %v@%d differs from fresh %v@%d",
				again.MaxPct, again.MaxBlock, first.MaxPct, first.MaxBlock)
		}
		for bi := range first.PerBlockPct {
			if again.PerBlockPct[bi] != first.PerBlockPct[bi] {
				t.Fatalf("block %d: cached %v differs from fresh %v",
					bi, again.PerBlockPct[bi], first.PerBlockPct[bi])
			}
		}
	}
	s := n.CacheStats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one mask)", s.Misses)
	}
	if s.Hits != 3 {
		t.Errorf("hits = %d, want 3", s.Hits)
	}
}

// TestRebuildPathsFlushesCache: moving regulators must empty every
// domain's memo — stale resistances would silently misprice the noise.
func TestRebuildPathsFlushesCache(t *testing.T) {
	chip := floorplan.MustPOWER8()
	n, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur := loadedCurrents(chip)
	mask := n.AllOnMask(0)
	if _, err := n.SteadyNoise(0, cur, mask); err != nil {
		t.Fatal(err)
	}
	before := n.CacheStats()
	n.rebuildPaths()
	if _, err := n.SteadyNoise(0, cur, mask); err != nil {
		t.Fatal(err)
	}
	after := n.CacheStats()
	if after.Misses != before.Misses+1 {
		t.Errorf("same mask hit after rebuildPaths (misses %d -> %d); stale resistances survived",
			before.Misses, after.Misses)
	}
}

// TestSteadyNoiseIntoReusesBuffer: the Into variant must not allocate a
// fresh profile when handed one with capacity, and must equal SteadyNoise.
func TestSteadyNoiseIntoReusesBuffer(t *testing.T) {
	chip := floorplan.MustPOWER8()
	n, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur := loadedCurrents(chip)
	mask := n.AllOnMask(0)
	want, err := n.SteadyNoise(0, cur, mask)
	if err != nil {
		t.Fatal(err)
	}
	var out DomainNoise
	if err := n.SteadyNoiseInto(0, cur, mask, &out); err != nil {
		t.Fatal(err)
	}
	buf := &out.PerBlockPct[0]
	if err := n.SteadyNoiseInto(0, cur, mask, &out); err != nil {
		t.Fatal(err)
	}
	if &out.PerBlockPct[0] != buf {
		t.Error("second SteadyNoiseInto reallocated the per-block buffer")
	}
	if out.MaxPct != want.MaxPct || out.MaxBlock != want.MaxBlock {
		t.Errorf("Into gave %v@%d, SteadyNoise gave %v@%d",
			out.MaxPct, out.MaxBlock, want.MaxPct, want.MaxBlock)
	}
	for bi := range want.PerBlockPct {
		if out.PerBlockPct[bi] != want.PerBlockPct[bi] {
			t.Fatalf("block %d: Into %v vs SteadyNoise %v", bi, out.PerBlockPct[bi], want.PerBlockPct[bi])
		}
	}
}

// TestMemoMatchesDirectRecompute: whatever mask sequence a domain sees —
// repeats (hits), a change of one regulator and a return to an earlier
// mask (misses) — the memo's resistances must equal a direct
// EffectiveResistance call bit for bit, and only exact repeats may hit.
func TestMemoMatchesDirectRecompute(t *testing.T) {
	chip := floorplan.MustPOWER8()
	n, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := n.AllOnMask(0)
	b := n.AllOnMask(0)
	b[len(b)-1] = false // differs from a in its last element only
	for step, mask := range [][]bool{a, a, b, b, a} {
		effR := n.effFor(0, mask)
		for bi := range effR {
			if want := n.EffectiveResistance(0, bi, mask); effR[bi] != want {
				t.Fatalf("step %d block %d: memo %v, direct %v", step, bi, effR[bi], want)
			}
		}
	}
	if s := n.CacheStats(); s != (CacheStats{Hits: 2, Misses: 3}) {
		t.Errorf("stats = %+v, want 2 hits and 3 misses", s)
	}
}
