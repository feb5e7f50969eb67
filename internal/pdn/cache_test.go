package pdn

import (
	"testing"

	"thermogater/internal/floorplan"
)

func TestMaskKey(t *testing.T) {
	cases := []struct {
		mask []bool
		want uint64
	}{
		{nil, 0},
		{[]bool{false, false}, 0},
		{[]bool{true}, 1},
		{[]bool{false, true, false, true}, 0b1010},
		{[]bool{true, true, true, true, true, true, true, true, true}, 0x1ff},
	}
	for _, c := range cases {
		if got := MaskKey(c.mask); got != c.want {
			t.Errorf("MaskKey(%v) = %#x, want %#x", c.mask, got, c.want)
		}
	}
}

func TestMaskLRUHitMissEviction(t *testing.T) {
	c := newMaskLRU[int](2)
	if _, ok := c.get(1); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.put(1, 10)
	c.put(2, 20)
	if v, ok := c.get(1); !ok || v != 10 {
		t.Fatalf("get(1) = %v, %v", v, ok)
	}
	// 1 is now MRU; inserting 3 must evict 2.
	c.put(3, 30)
	if _, ok := c.get(2); ok {
		t.Fatal("LRU entry 2 not evicted")
	}
	if v, ok := c.get(3); !ok || v != 30 {
		t.Fatalf("get(3) = %v, %v", v, ok)
	}
	if v, ok := c.get(1); !ok || v != 10 {
		t.Fatalf("get(1) after eviction = %v, %v", v, ok)
	}
	s := c.stats
	if s.Hits != 3 || s.Misses != 2 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 3 hits, 2 misses, 1 eviction", s)
	}
	c.flush()
	if c.size() != 0 {
		t.Fatalf("flush left %d entries", c.size())
	}
	if c.stats != s {
		t.Fatalf("flush reset the cumulative stats: %+v", c.stats)
	}
}

// TestMaskLRUEvictIfFullRecycles: the pre-eviction hook must hand back
// the LRU entry's value exactly when the cache is at capacity, count it
// as an eviction, and leave room so the follow-up put evicts nothing —
// the contract effFor relies on to recycle slice backings in steady
// state instead of allocating per miss.
func TestMaskLRUEvictIfFullRecycles(t *testing.T) {
	c := newMaskLRU[[]float64](2)
	if v, ok := c.evictIfFull(); ok || v != nil {
		t.Fatalf("evictIfFull on a non-full cache = %v, %v", v, ok)
	}
	a, b := []float64{1}, []float64{2}
	c.put(1, a)
	c.put(2, b)
	got, ok := c.evictIfFull()
	if !ok || &got[0] != &a[0] {
		t.Fatalf("evictIfFull did not return the LRU value's backing (ok=%v)", ok)
	}
	if c.size() != 1 {
		t.Fatalf("size after evictIfFull = %d, want 1", c.size())
	}
	evBefore := c.stats.Evictions
	c.put(3, got)
	if c.stats.Evictions != evBefore {
		t.Fatal("put after evictIfFull evicted again")
	}
	if v, ok := c.get(2); !ok || &v[0] != &b[0] {
		t.Fatal("surviving entry 2 disturbed by the recycle cycle")
	}
	if v, ok := c.get(3); !ok || &v[0] != &a[0] {
		t.Fatal("recycled backing not installed for the new key")
	}
	var nilCache *maskLRU[[]float64]
	if _, ok := nilCache.evictIfFull(); ok {
		t.Fatal("nil cache reported an eviction")
	}
}

// TestEffCacheHitsAreBitIdentical: cached noise profiles must match the
// uncached first computation exactly, bit for bit.
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

// TestEffCacheEviction drives more masks through one domain than the
// cache holds and checks the counters notice.
func TestEffCacheEviction(t *testing.T) {
	chip := floorplan.MustPOWER8()
	cfg := DefaultConfig()
	cfg.MaskCacheSize = 2
	n, err := NewNetwork(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cur := loadedCurrents(chip)
	nVR := len(chip.Domains[0].Regulators)
	for off := 0; off < 4; off++ {
		mask := make([]bool, nVR)
		for i := range mask {
			mask[i] = i != off
		}
		if _, err := n.SteadyNoise(0, cur, mask); err != nil {
			t.Fatal(err)
		}
	}
	s := n.CacheStats()
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4 (all distinct masks)", s.Misses)
	}
	if s.Evictions != 2 {
		t.Errorf("evictions = %d, want 2 (capacity 2, 4 masks)", s.Evictions)
	}
}

// TestRebuildPathsFlushesCache: moving regulators must invalidate every
// cached resistance — a stale entry would silently misprice the noise.
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

// TestCacheDisabled: with MaskCacheSize = CacheDisabled every solve
// recomputes, the counters stay at zero, and the results are
// bit-identical to the cached path — the property the paired benchmark
// control depends on.
func TestCacheDisabled(t *testing.T) {
	chip := floorplan.MustPOWER8()
	cur := loadedCurrents(chip)

	cached, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaskCacheSize = CacheDisabled
	bare, err := NewNetwork(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mask := bare.AllOnMask(0)
	mask[1] = false
	want, err := cached.SteadyNoise(0, cur, mask)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 3; rep++ {
		got, err := bare.SteadyNoise(0, cur, mask)
		if err != nil {
			t.Fatal(err)
		}
		if got.MaxPct != want.MaxPct || got.MaxBlock != want.MaxBlock {
			t.Fatalf("uncached max %v@%d differs from cached %v@%d",
				got.MaxPct, got.MaxBlock, want.MaxPct, want.MaxBlock)
		}
		for bi := range want.PerBlockPct {
			if got.PerBlockPct[bi] != want.PerBlockPct[bi] {
				t.Fatalf("block %d: uncached %v vs cached %v", bi, got.PerBlockPct[bi], want.PerBlockPct[bi])
			}
		}
	}
	if s := bare.CacheStats(); s != (CacheStats{}) {
		t.Errorf("disabled network cache counted %+v", s)
	}
}
