package thermal

import (
	"math"
	"sync"
	"testing"

	"thermogater/internal/floorplan"
	"thermogater/internal/workload"
)

// steadyPowers installs one seeded random power map on each model.
func steadyPowers(t *testing.T, seed uint64, ms ...*Model) {
	t.Helper()
	randomPowers(t, workload.NewRNG(seed), ms...)
}

// wantMemo fails the test unless the memo counters read hits and misses.
func wantMemo(t *testing.T, label string, hits, misses int64) {
	t.Helper()
	if h, m := SteadyMemoStats(); h != hits || m != misses {
		t.Fatalf("%s: memo read %d hits, %d misses; want %d, %d", label, h, m, hits, misses)
	}
}

// TestSteadyMemoHitMatchesSolve: a second fresh model with the same power
// map hits the solve the first one stored and ends with the same bits and
// iteration count, and both equal a solve after the memo is emptied.
func TestSteadyMemoHitMatchesSolve(t *testing.T) {
	steadyMemo.reset()
	first, second, third := newModel(t), newModel(t), newModel(t)
	steadyPowers(t, 3, first, second, third)
	it1, err := first.SteadyState(1e-4, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMemo(t, "first solve", 0, 1)
	it2, err := second.SteadyState(1e-4, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMemo(t, "second model", 1, 1)
	steadyMemo.reset()
	it3, err := third.SteadyState(1e-4, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantMemo(t, "after reset", 0, 1)
	if it1 < 2 || it2 != it1 || it3 != it1 {
		t.Fatalf("iterations: solve %d, hit %d, solve after reset %d", it1, it2, it3)
	}
	if i := firstBitDiff(second.temp, first.temp); i >= 0 {
		t.Fatalf("hit node %d: %v, solve %v", i, second.temp[i], first.temp[i])
	}
	if i := firstBitDiff(third.temp, first.temp); i >= 0 {
		t.Fatalf("solve after reset node %d: %v, first solve %v", i, third.temp[i], first.temp[i])
	}
}

// TestSteadyMemoKeyCoversInputs changes one input of a stored solve at a
// time — one power entry, one starting temperature, the tolerance, the
// iteration budget, the network — and requires a miss each time. The
// unchanged inputs, and a budget of 0 against its effective 20000, hit.
func TestSteadyMemoKeyCoversInputs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GRegulatorWPerK *= 1.5
	otherNet, err := NewModel(floorplan.MustPOWER8(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		m       *Model
		mutate  func(m *Model)
		tolC    float64
		maxIter int
		hit     bool
	}{
		{"same inputs", newModel(t), func(*Model) {}, 1e-4, 0, true},
		{"effective budget", newModel(t), func(*Model) {}, 1e-4, 20000, true},
		{"one power entry", newModel(t), func(m *Model) { m.power[5] = math.Nextafter(m.power[5], 100) }, 1e-4, 0, false},
		{"one regulator power", newModel(t), func(m *Model) { m.power[m.nBlocks+2] += 0.01 }, 1e-4, 0, false},
		{"one start temperature", newModel(t), func(m *Model) { m.temp[m.sink] = math.Nextafter(m.temp[m.sink], 100) }, 1e-4, 0, false},
		{"tolerance", newModel(t), func(*Model) {}, math.Nextafter(1e-4, 1), 0, false},
		{"iteration budget", newModel(t), func(*Model) {}, 1e-4, 19999, false},
		{"network", otherNet, func(*Model) {}, 1e-4, 0, false},
	}
	for _, c := range cases {
		steadyMemo.reset()
		base := newModel(t)
		steadyPowers(t, 11, base, c.m)
		if _, err := base.SteadyState(1e-4, 0); err != nil {
			t.Fatal(err)
		}
		c.mutate(c.m)
		if _, err := c.m.SteadyState(c.tolC, c.maxIter); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.hit {
			wantMemo(t, c.name, 1, 1)
		} else {
			wantMemo(t, c.name, 0, 2)
		}
	}
}

// TestSteadyMemoStoresOnlyConverged: after a converged solve is stored, a
// call from the same inputs with a budget too small to converge still
// fails (its key differs), and a failed solve is not stored, so repeating
// it fails again and misses again.
func TestSteadyMemoStoresOnlyConverged(t *testing.T) {
	steadyMemo.reset()
	ok, short, again := newModel(t), newModel(t), newModel(t)
	steadyPowers(t, 5, ok, short, again)
	if _, err := ok.SteadyState(1e-9, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := short.SteadyState(1e-9, 1); err == nil {
		t.Fatal("a one-sweep budget converged after a converged solve was stored")
	}
	if _, err := again.SteadyState(1e-9, 1); err == nil {
		t.Fatal("a one-sweep budget converged on its second try")
	}
	wantMemo(t, "converged then two failures", 0, 3)
	if n := steadyMemo.size(); n != 1 {
		t.Fatalf("memo holds %d solves; only the converged one should be stored", n)
	}
}

// TestSteadyMemoEvictsOldestFirst fills the memo past its bound with cheap
// one-sweep solves (a tolerance no sweep can miss, different per call): it
// keeps steadyMemoCap entries, the oldest are gone and the newest remain.
func TestSteadyMemoEvictsOldestFirst(t *testing.T) {
	steadyMemo.reset()
	m := newModel(t)
	steadyPowers(t, 9, m)
	tol := func(i int) float64 { return 1e6 + float64(i) }
	const extra = 6
	for i := 0; i < steadyMemoCap+extra; i++ {
		m.Reset(m.cfg.AmbientC)
		if it, err := m.SteadyState(tol(i), 0); err != nil || it != 1 {
			t.Fatalf("fill %d: %d iterations, %v", i, it, err)
		}
	}
	if n := steadyMemo.size(); n != steadyMemoCap {
		t.Fatalf("memo holds %d solves after %d stores; bound is %d", n, steadyMemoCap+extra, steadyMemoCap)
	}
	// The hits come first: a miss stores its solve and evicts the oldest.
	_, misses := SteadyMemoStats()
	for _, c := range []struct {
		i   int
		hit bool
	}{{extra, true}, {steadyMemoCap + extra - 1, true}, {0, false}, {extra - 1, false}} {
		m.Reset(m.cfg.AmbientC)
		if _, err := m.SteadyState(tol(c.i), 0); err != nil {
			t.Fatal(err)
		}
		_, now := SteadyMemoStats()
		if hit := now == misses; hit != c.hit {
			t.Errorf("solve %d: hit %v, want %v", c.i, hit, c.hit)
		}
		misses = now
	}
	if n := steadyMemo.size(); n > steadyMemoCap {
		t.Fatalf("memo grew to %d solves", n)
	}
}

// TestSteadyMemoConcurrentSolves: goroutines that each own a model solve
// the same inputs at once, while others churn the memo past its bound
// with distinct keys. Every solve of the shared inputs must end with the
// same bits and iteration count as a solve on an emptied memo.
func TestSteadyMemoConcurrentSolves(t *testing.T) {
	steadyMemo.reset()
	ref := newModel(t)
	steadyPowers(t, 13, ref)
	wantIt, err := ref.SteadyState(1e-4, 0)
	if err != nil {
		t.Fatal(err)
	}
	steadyMemo.reset()
	const workers = 8
	models := make([]*Model, workers)
	churn := make([]*Model, workers)
	for i := range models {
		models[i], churn[i] = newModel(t), newModel(t)
		steadyPowers(t, 13, models[i])
		steadyPowers(t, 100+uint64(i), churn[i])
	}
	iters := make([]int, workers)
	errs := make([]error, 2*workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			iters[i], errs[i] = models[i].SteadyState(1e-4, 0)
		}(i)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < steadyMemoCap/4; k++ {
				churn[i].Reset(churn[i].cfg.AmbientC)
				if _, err := churn[i].SteadyState(1e6+float64(k), 0); err != nil {
					errs[workers+i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i, m := range models {
		if iters[i] != wantIt {
			t.Errorf("goroutine %d: %d iterations, want %d", i, iters[i], wantIt)
		}
		if j := firstBitDiff(m.temp, ref.temp); j >= 0 {
			t.Errorf("goroutine %d node %d: %v, want %v", i, j, m.temp[j], ref.temp[j])
		}
	}
	if n := steadyMemo.size(); n > steadyMemoCap {
		t.Fatalf("memo grew to %d solves", n)
	}
}

// BenchmarkThermalSteadyState measures SteadyState's solving path on a
// start-of-run problem (2 W per block, 0.1 W per regulator, from ambient,
// at the runner's 1e-4 °C), with the memo emptied before every call so no
// iteration is a hit.
func BenchmarkThermalSteadyState(b *testing.B) {
	m, err := NewModel(floorplan.MustPOWER8(), DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	bp := make([]float64, m.nBlocks)
	for i := range bp {
		bp[i] = 2
	}
	vp := make([]float64, m.nVRs)
	for i := range vp {
		vp[i] = 0.1
	}
	if err := m.SetPower(bp, vp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		steadyMemo.reset()
		m.Reset(m.cfg.AmbientC)
		if _, err := m.SteadyState(1e-4, 0); err != nil {
			b.Fatal(err)
		}
	}
}
