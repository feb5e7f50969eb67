package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

func TestMeasureProducesCompleteBaseline(t *testing.T) {
	cases := []benchCase{{"all-on", "fft"}}
	b, err := measure(cases, 30, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, b); err != nil {
		t.Fatal(err)
	}
	var back Baseline
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if back.Schema != BaselineSchema {
		t.Errorf("schema = %q", back.Schema)
	}
	if len(back.Cases) != 1 {
		t.Fatalf("cases = %d, want 1", len(back.Cases))
	}
	c := back.Cases[0]
	if c.Name != "runner/all-on/fft" || c.Policy != "all-on" || c.Benchmark != "fft" {
		t.Errorf("case identity wrong: %+v", c)
	}
	if c.Epochs != 30 {
		t.Errorf("epochs = %d, want 30", c.Epochs)
	}
	if c.WallNSPerEpoch <= 0 {
		t.Errorf("wall_ns_per_epoch = %v", c.WallNSPerEpoch)
	}
	for _, ph := range []string{"uarch", "power", "governor", "vr", "thermal", "pdn"} {
		if _, ok := c.PhaseNSPerEpoch[ph]; !ok {
			t.Errorf("phase %q missing from baseline", ph)
		}
	}
	if c.ThermalSubsteps <= 0 {
		t.Errorf("thermal substeps per epoch = %v", c.ThermalSubsteps)
	}
	if c.PDNSteadySolves <= 0 {
		t.Errorf("pdn steady solves per epoch = %v", c.PDNSteadySolves)
	}
}

func TestMeasureRejectsUnknownCase(t *testing.T) {
	if _, err := measure([]benchCase{{"nope", "fft"}}, 30, 1, 0, 1); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := measure([]benchCase{{"all-on", "nope"}}, 30, 1, 0, 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v, want 0", m)
	}
}

func TestPairedEstimators(t *testing.T) {
	wall := func(ns float64) *CaseResult {
		return &CaseResult{WallNSPerEpoch: ns, PhaseNSPerEpoch: map[string]int64{"pdn": int64(ns / 10)}}
	}
	// Three rounds with a 2x drift between rounds: per-round pairing must
	// still resolve cell 1 running 10% slower than cell 0.
	rounds := [][]*CaseResult{
		{wall(100), wall(110), wall(102)},
		{wall(200), wall(220), wall(198)},
		{wall(150), wall(165), wall(151)},
	}
	if r := medianRatio(rounds, 1, 0, wallOf); r < 1.099 || r > 1.101 {
		t.Errorf("medianRatio = %v, want 1.10 despite 2x drift", r)
	}
	// The null pair (cells 0 and 2, same configuration) bounds the floor:
	// deviations are 2%, 1%, ~0.67% -> median 1%.
	if nf := nullFloorPct(rounds, 2, 0); nf < 0.9 || nf > 1.1 {
		t.Errorf("nullFloorPct = %v, want ~1", nf)
	}
	if r := medianRatio(rounds, 0, 0, wallOf); r != 1 {
		t.Errorf("self ratio = %v, want exactly 1", r)
	}
}

// TestMeasureCacheControlAndAllocs: the paired cache-disabled control and
// the allocation pass must produce a self-consistent case — the exact
// properties -check later enforces on the committed file.
func TestMeasureCacheControlAndAllocs(t *testing.T) {
	// The committed baseline's 150 ms duration and the median of 3
	// interleaved rounds. The phase ratio is a ratio of wall times, and
	// on a loaded host (the race detector running other packages' tests
	// alongside) a scheduler preemption of several milliseconds landing
	// in one phase outweighs a 30 ms run's whole pdn phase: one such run
	// read 0.83. Five times the epochs and three rounds average those
	// lumps out.
	b, err := measure([]benchCase{{"oracT", "fft"}}, 150, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Cases) != 1 {
		t.Fatalf("cases = %d, want 1", len(b.Cases))
	}
	c := b.Cases[0]
	if c.CacheHitRate <= 0.5 {
		t.Errorf("cache hit rate = %v, want the per-mask cache mostly hitting", c.CacheHitRate)
	}
	if c.NoCacheWallNSPerEpoch <= 0 {
		t.Errorf("nocache control wall = %v, want positive", c.NoCacheWallNSPerEpoch)
	}
	if c.CacheSpeedup <= 0 {
		t.Errorf("cache_speedup = %v, want positive", c.CacheSpeedup)
	}
	// The pdn-phase ratio is a work ratio: a full effective-resistance
	// recompute per substep per domain vs a lookup.
	if c.CacheSpeedupPDNPhase <= 1 {
		t.Errorf("cache_speedup_pdn_phase = %v, want > 1", c.CacheSpeedupPDNPhase)
	}
	// The paired-differencing allocation figures must witness the epoch
	// loop's zero-allocation contract. The bound here is looser than
	// -check's 0.5; at this 150 ms duration the figures land below 0.2
	// (see docs/PERFORMANCE.md).
	if c.AllocsPerEpoch >= 2 || c.AllocsPerEpoch <= -2 {
		t.Errorf("allocs_per_epoch = %v, want ~0", c.AllocsPerEpoch)
	}
	if c.BytesPerEpoch >= 4096 || c.BytesPerEpoch <= -4096 {
		t.Errorf("bytes_per_epoch = %v, want ~0", c.BytesPerEpoch)
	}
}

func TestCheckBaselineFile(t *testing.T) {
	write := func(t *testing.T, b *Baseline) string {
		t.Helper()
		path := t.TempDir() + "/b.json"
		var buf bytes.Buffer
		if err := writeJSON(&buf, b); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := &Baseline{
		Schema: BaselineSchema,
		Cases: []CaseResult{{
			Name: "runner/oracT/fft", Epochs: 30,
			WallNSPerEpoch:        100,
			CacheHitRate:          0.9,
			NoCacheWallNSPerEpoch: 120,
			CacheSpeedup:          1.2,
			CacheSpeedupPDNPhase:  1.8,
		}},
	}
	if err := checkBaselineFile(write(t, good)); err != nil {
		t.Errorf("valid baseline rejected: %v", err)
	}

	for name, mutate := range map[string]func(*Baseline){
		"wrong schema": func(b *Baseline) { b.Schema = "thermogater/bench/v1" },
		"no cases":     func(b *Baseline) { b.Cases = nil },
		"zero epochs":  func(b *Baseline) { b.Cases[0].Epochs = 0 },
		"zero wall":    func(b *Baseline) { b.Cases[0].WallNSPerEpoch = 0 },
		"hit rate > 1": func(b *Baseline) { b.Cases[0].CacheHitRate = 1.5 },
		"missing cache control": func(b *Baseline) {
			b.Cases[0].NoCacheWallNSPerEpoch = 0
		},
		"pdn-phase cache regression": func(b *Baseline) {
			b.Cases[0].CacheSpeedupPDNPhase = 0.8
		},
		"steady-state allocations": func(b *Baseline) {
			b.Cases[0].AllocsPerEpoch = 3
		},
	} {
		var b Baseline
		var buf bytes.Buffer
		if err := writeJSON(&buf, good); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(buf.Bytes(), &b); err != nil {
			t.Fatal(err)
		}
		mutate(&b)
		if err := checkBaselineFile(write(t, &b)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkBaselineFile(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing file accepted")
	}
}
