package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thermogater/internal/core"
	"thermogater/internal/serve"
	"thermogater/internal/sim"
)

func firstSpecs(t *testing.T, g *specGen, n int) []serve.JobSpec {
	t.Helper()
	var specs []serve.JobSpec
	for i := 0; i < n; i++ {
		s, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return specs
}

func TestSpecStreamsAreSeeded(t *testing.T) {
	for _, name := range []string{svcShort, svcLong} {
		gen := func(seed uint64) []serve.JobSpec {
			g, err := newSpecGen(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			return firstSpecs(t, g, 2000)
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different spec lists", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same spec list", name)
		}
		ids := make(map[string]bool)
		for _, s := range a {
			if err := s.Validate(); err != nil {
				t.Fatalf("%s: invalid spec %+v: %v", name, s, err)
			}
			if ids[s.ID()] {
				t.Fatalf("%s: job ID %s repeats, the supervisor would dedup it", name, s.ID())
			}
			ids[s.ID()] = true
		}
	}
	s1, s2, s3 := newSweepSeeds(7), newSweepSeeds(7), newSweepSeeds(8)
	x, y, z := s1.next(), s2.next(), s3.next()
	if x != y || x == z {
		t.Errorf("sweep seeds: seed 7 gave %d and %d, seed 8 gave %d", x, y, z)
	}
}

func TestWarmUpSeedsAreDisjoint(t *testing.T) {
	measured := make(map[uint64]bool)
	for _, name := range []string{svcShort, svcLong} {
		g, err := newSpecGen(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range firstSpecs(t, g, 500) {
			if s.Seed < 1 || s.Seed > measuredSeedMax {
				t.Fatalf("%s: measured seed %d out of range", name, s.Seed)
			}
			measured[s.Seed] = true
		}
		rounds := make(map[uint64]int)
		for k := 0; k < setupRounds; k++ {
			w, err := newWarmGen(name, 3, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range firstSpecs(t, w, warmJobs[name]) {
				if measured[s.Seed] || s.Seed <= measuredSeedMax {
					t.Fatalf("%s: warm-up seed %d can meet a measured one", name, s.Seed)
				}
				if r, ok := rounds[s.Seed]; ok && r != k {
					t.Fatalf("%s: seed %d warms rounds %d and %d", name, s.Seed, r, k)
				}
				rounds[s.Seed] = k
			}
		}
	}
}

func TestSvcShortMix(t *testing.T) {
	g, err := newSpecGen(svcShort, 1)
	if err != nil {
		t.Fatal(err)
	}
	specs := firstSpecs(t, g, 3000)
	prac := 0
	pairs := make(map[pair]bool)
	for _, s := range specs {
		if isPractical(s.Policy) {
			prac++
		}
		pairs[pair{s.Benchmark, s.Seed}] = true
		if s.DurationMS < shortMinMS || s.DurationMS >= shortMinMS+shortSpanMS {
			t.Fatalf("duration %d out of range", s.DurationMS)
		}
	}
	if 3*prac < 2*len(specs) {
		t.Errorf("%d of %d jobs are pracT/pracVT, want at least two thirds", prac, len(specs))
	}
	if len(pairs) > len(suiteNames)*shortSeedsPerBench {
		t.Errorf("%d (benchmark, seed) pairs, want at most %d", len(pairs), len(suiteNames)*shortSeedsPerBench)
	}
}

func TestSvcLongCoversTheGrid(t *testing.T) {
	g, err := newSpecGen(svcLong, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[cell]int)
	for _, s := range firstSpecs(t, g, 2*len(grid())) {
		cells[cell{s.Policy, s.Benchmark}]++
		if s.DurationMS < longMinMS || s.DurationMS >= longMinMS+longSpanMS {
			t.Fatalf("duration %d out of range", s.DurationMS)
		}
	}
	for _, c := range grid() {
		if cells[c] != 2 {
			t.Errorf("cell %v ran %d times in two passes over the grid, want 2", c, cells[c])
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the names, units, directions
// and bounds the program reports identical to BENCHMARK.json's.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bench.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %+v\nprogram        %+v", bench.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bench.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %+v\nprogram        %+v", bench.PerLayer, perLayer)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestReportHoldsExactlyTheTable(t *testing.T) {
	values := map[string]float64{"extra": 1}
	for i, d := range perLayer {
		values[d.Name] = float64(i)
	}
	rep, err := buildReport(perLayer, values, 3, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if m, ok := rep.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: reported %+v, want unit %s", d.Name, m, d.Unit)
		}
	}
	delete(values, perLayer[0].Name)
	if _, err := buildReport(perLayer, values, 3, 0, true); err == nil {
		t.Error("a missing metric was not an error")
	}
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := p90(xs); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with 10 beyond", v, err)
	}
	if _, err := p90(xs[:99]); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must not be reported")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) on Python 3.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1.5, 2.25, 9, 4}, 1.875, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestConcurrencyStaysAtConc checks that neither the service workloads nor
// the sweep use more than conc clients or workers.
func TestConcurrencyStaysAtConc(t *testing.T) {
	env, err := startService()
	if err != nil {
		t.Fatal(err)
	}
	var most atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if r := int64(env.sup.Stats().Running); r > most.Load() {
					most.Store(r)
				}
			}
		}
	}()
	g, err := newSpecGen(svcShort, 1)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := env.closedLoop(g, 60, time.Now().Add(time.Minute), 0)
	close(stop)
	wg.Wait()
	if cerr := env.close(); cerr != nil {
		t.Error(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range loop.records {
		if r.err != nil {
			t.Fatal(r.err)
		}
	}
	if d := env.dials.Load(); d > conc {
		t.Errorf("the client opened %d connections, want at most %d", d, conc)
	}
	if m := most.Load(); m > conc {
		t.Errorf("%d jobs ran at once, want at most %d", m, conc)
	}

	run, err := runSweep([]core.PolicyKind{core.AllOn}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.workers > conc {
		t.Errorf("RunSweep ran cells on %d goroutines, want at most %d", run.workers, conc)
	}
}

func TestReplayReadsEveryLayer(t *testing.T) {
	var cfgs []sim.Config
	for _, p := range []string{"pracVT", "all-on", "oracT"} {
		cfg, err := cellConfig(p, "fft", 3, 40)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	reps, err := replayAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reps {
		if r.epochs != 40 || r.epochMS <= 0 || r.newMS <= 0 || r.plainMS <= 0 {
			t.Errorf("%v: replay %+v", cfgs[i].Policy, r)
		}
		for _, p := range sim.PhaseNames {
			if r.phaseMS[p] <= 0 {
				t.Errorf("%v: phase %s has no time", cfgs[i].Policy, p)
			}
		}
	}
	v := make(map[string]float64)
	simLayers(cfgs, reps, v)
	if v["thermal.substeps_per_epoch"] <= 0 || v["pdn.solves_per_epoch"] <= 0 || v["pdn.mask_hit_ratio"] <= 0 {
		t.Errorf("counters not read: %v", v)
	}
}

// TestTracedRuns runs each workload's traced mode on a short window: every
// per-layer metric must be present, every output correct, and the
// accounting identity must hold.
func TestTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	for _, name := range []string{svcShort, sweepGrid} {
		o, err := run(name, 11, 2*time.Second, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if o.failed != 0 || len(o.problems) != 0 {
			t.Errorf("%s: %d failed, problems %v, notes %v", name, o.failed, o.problems, o.notes)
		}
		if _, err := buildReport(perLayer, o.values, o.attempted, o.failed, true); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
