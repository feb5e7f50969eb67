package sim

import (
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/telemetry"
	"thermogater/internal/workload"
)

// TestSharedRegistryCacheCounters is the regression test for the
// pdn.CacheStats registration audit: telemetry.Registry.Counter is
// get-or-create, so two instrument sets (two runners, or one runner
// re-created after checkpoint resume) sharing one registry must resolve
// the same "pdn_mask_cache_total" counters instead of panicking or
// double-registering, and their increments must aggregate.
func TestSharedRegistryCacheCounters(t *testing.T) {
	reg := telemetry.NewRegistry()

	a := newInstruments(reg)
	var b *instruments
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("second newInstruments on a shared registry panicked: %v", r)
			}
		}()
		b = newInstruments(reg)
	}()

	if a.maskCacheHit != b.maskCacheHit || a.maskCacheMiss != b.maskCacheMiss {
		t.Fatal("shared registry returned distinct counters for the same name+labels")
	}

	a.maskCacheHit.Add(3)
	b.maskCacheHit.Add(4)
	if got := a.maskCacheHit.Value(); got != 7 {
		t.Fatalf("shared counter did not aggregate: got %v, want 7", got)
	}

	// The registry must hold exactly one series per (name, labels) pair:
	// hit and miss under one metric name, each registered once.
	snap := reg.Snapshot()
	seen := map[string]int{}
	for _, c := range snap.Counters {
		if c.Name == "pdn_mask_cache_total" {
			seen[telemetry.Key(c.Name, c.Labels)]++
		}
	}
	if len(seen) != 2 {
		t.Fatalf("want 2 pdn_mask_cache_total series (hit/miss), got %d: %v", len(seen), seen)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("series %s registered %d times", k, n)
		}
	}
}

// TestMaskMemoHitRatio pins the PDN mask memo's payoff on the run it was
// sized for: pracVT on lu_ncb for 1000 ms. The governor changes a
// domain's regulator mask only on decision epochs while the pdn phase
// solves every substep, so one remembered mask per domain must serve at
// least 90 % of lookups, read from the pdn_mask_cache_total counters.
func TestMaskMemoHitRatio(t *testing.T) {
	bench, err := workload.ByName("lu_ncb")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(core.PracVT, bench)
	cfg.DurationMS = 1000
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	hits := reg.Counter("pdn_mask_cache_total", telemetry.L("kind", "hit")).Value()
	misses := reg.Counter("pdn_mask_cache_total", telemetry.L("kind", "miss")).Value()
	ratio := hits / (hits + misses)
	t.Logf("hits %v, misses %v, ratio %.4f", hits, misses, ratio)
	if !(ratio >= 0.9) {
		t.Errorf("mask memo hit ratio %.4f over %v hits and %v misses, want >= 0.9", ratio, hits, misses)
	}
}
