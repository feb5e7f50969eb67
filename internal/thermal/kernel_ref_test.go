package thermal

// Bit-identity tests for the rewritten thermal kernels. Each test keeps a
// verbatim copy of the kernel as it stood before the rewrite (stepCapped's
// nested CSR sweep, the watchdog's per-node health test, and the separate
// MaxTemp and Gradient scans) and requires the current code to agree with
// it bit for bit. A rewrite of a hot kernel must keep every bit: the sim
// goldens and the rendered artefacts hash these values.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"thermogater/internal/workload"
)

// refStepCapped is the pre-rewrite stepCapped, verbatim apart from its
// receiver, its own delta buffer and the tgsan stability hook.
func refStepCapped(m *Model, delta []float64, dtS, capS float64) error {
	if dtS <= 0 {
		return fmt.Errorf("thermal: non-positive step %v", dtS)
	}
	if !(capS > 0) {
		return fmt.Errorf("thermal: non-positive substep cap %v", capS)
	}
	// Stability: substep ≤ min(cap, 0.5/maxRate).
	sub := math.Min(capS, 0.5/m.maxRate)
	if !(sub > 0) {
		return fmt.Errorf("thermal: degenerate substep %v (maxRate=%v)", sub, m.maxRate)
	}
	steps := int(math.Ceil(dtS / sub))
	h := dtS / float64(steps)
	m.substeps += int64(steps)
	for s := 0; s < steps; s++ {
		for i := 0; i < m.nNodes; i++ {
			q := m.power[i]
			ti := m.temp[i]
			for k := m.rowStart[i]; k < m.rowStart[i+1]; k++ {
				q += m.flatG[k] * (m.temp[m.flatTo[k]] - ti)
			}
			if m.ambientG[i] > 0 {
				q += m.ambientG[i] * (m.cfg.AmbientC - ti)
			}
			delta[i] = h * q / m.capJPerK[i]
		}
		for i := range delta {
			m.temp[i] += delta[i]
		}
	}
	return nil
}

// refHealthy is the pre-rewrite Watchdog.healthy, verbatim.
func refHealthy(w *Watchdog) bool {
	lo := w.m.cfg.AmbientC - 1
	hi := w.m.cfg.MaxJunction() + 50
	for i, t := range w.m.temp {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return false
		}
		if i < w.m.nBlocks+w.m.nVRs && (t < lo || t > hi) {
			return false
		}
	}
	return true
}

// refMaxTemp and refGradient are the pre-rewrite MaxTemp and Gradient,
// verbatim: two separate scans of the on-die nodes.
func refMaxTemp(m *Model) (float64, string) {
	best, where := math.Inf(-1), ""
	for i := 0; i < m.nBlocks; i++ {
		if m.temp[i] > best {
			best, where = m.temp[i], m.chip.Blocks[i].Name
		}
	}
	for r := 0; r < m.nVRs; r++ {
		if t := m.temp[m.nBlocks+r]; t > best {
			best = t
			where = m.vrNames[r]
		}
	}
	return best, where
}

func refGradient(m *Model) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < m.nBlocks+m.nVRs; i++ {
		t := m.temp[i]
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	return hi - lo
}

// firstBitDiff returns the first index where two float vectors differ bit
// for bit (so NaN payloads and signed zeros count too), or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// randomPowers installs a seeded random power map on both models: block
// powers up to 8 W, a random subset of regulators dissipating up to 0.5 W.
func randomPowers(t *testing.T, rng *workload.RNG, ms ...*Model) {
	t.Helper()
	bp := make([]float64, ms[0].nBlocks)
	vp := make([]float64, ms[0].nVRs)
	for i := range bp {
		bp[i] = 8 * rng.Float64()
	}
	for i := range vp {
		if rng.Float64() < 0.5 {
			vp[i] = 0.5 * rng.Float64()
		}
	}
	for _, m := range ms {
		if err := m.SetPower(bp, vp); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStepCappedMatchesReference drives the rewritten sweep and the
// reference copy from identical states over seeded random power maps:
// single 100 µs substeps as the epoch loop takes them, the multi-substep
// 1 ms Step the θ-profiling pass takes, and a halved cap as a watchdog
// retry uses. Temperatures and the substep counter must agree bit for bit.
func TestStepCappedMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		got, want := newModel(t), newModel(t)
		got.Reset(45 + float64(seed))
		want.Reset(45 + float64(seed))
		delta := make([]float64, want.nNodes)
		rng := workload.NewRNG(seed)
		for round := 0; round < 12; round++ {
			randomPowers(t, rng, got, want)
			dt, capS := 1e-4, got.cfg.MaxEulerStepS
			switch round % 3 {
			case 1:
				dt = 1e-3 // Step(1e-3): several internal substeps
			case 2:
				capS /= 2 // a watchdog retry at a halved cap
			}
			if err := got.stepCapped(dt, capS); err != nil {
				t.Fatal(err)
			}
			if err := refStepCapped(want, delta, dt, capS); err != nil {
				t.Fatal(err)
			}
			if i := firstBitDiff(got.temp, want.temp); i >= 0 {
				t.Fatalf("seed %d round %d node %d: %v, reference %v", seed, round, i, got.temp[i], want.temp[i])
			}
			if got.substeps != want.substeps {
				t.Fatalf("seed %d round %d: %d substeps, reference %d", seed, round, got.substeps, want.substeps)
			}
		}
	}
	// The multi-substep path must really take several substeps per call.
	m := newModel(t)
	before := m.substeps
	if err := m.Step(1e-3); err != nil {
		t.Fatal(err)
	}
	if m.substeps-before < 2 {
		t.Fatalf("Step(1e-3) took %d substeps; the multi-substep path is untested", m.substeps-before)
	}
}

// TestHealthyMatchesReference sets one node at a time to each edge value
// — NaN, ±Inf, exactly lo and hi, one ulp outside each — on a die node
// and on a spreader/sink node, and requires the rewritten health test to
// give the reference's verdict.
func TestHealthyMatchesReference(t *testing.T) {
	m := newModel(t)
	w := NewWatchdog(m)
	lo := m.cfg.AmbientC - 1
	hi := m.cfg.MaxJunction() + 50
	values := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1),
		lo, hi, math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1)),
		math.Nextafter(lo, math.Inf(1)), math.Nextafter(hi, math.Inf(-1)),
		0, -300, 1e300,
	}
	nodes := []int{0, m.nBlocks - 1, m.nBlocks, m.nBlocks + m.nVRs - 1, m.spread0, m.sink}
	var sawReject, sawAccept bool
	for _, node := range nodes {
		for _, v := range values {
			m.Reset(m.cfg.AmbientC + 10)
			m.temp[node] = v
			got, want := w.healthy(), refHealthy(w)
			if got != want {
				t.Errorf("node %d = %v: healthy %v, reference %v", node, v, got, want)
			}
			sawReject = sawReject || !want
			sawAccept = sawAccept || want
		}
	}
	if !sawReject || !sawAccept {
		t.Fatal("the edge values never exercised both verdicts")
	}
}

// TestExtremesMatchesReference compares the one-pass scan against the two
// reference scans: on steady fields, on a block–regulator tie (the block
// must win, as MaxTemp's first strict maximum), on NaN nodes, and on an
// all-NaN die.
func TestExtremesMatchesReference(t *testing.T) {
	m := newModel(t)
	check := func(label string) {
		t.Helper()
		tmax, where, grad := m.Extremes()
		wantMax, wantWhere := refMaxTemp(m)
		if !sameFloat(tmax, wantMax) || where != wantWhere {
			t.Errorf("%s: max %v at %q, reference %v at %q", label, tmax, where, wantMax, wantWhere)
		}
		if g := refGradient(m); !sameFloat(grad, g) {
			t.Errorf("%s: gradient %v, reference %v", label, grad, g)
		}
	}
	rng := workload.NewRNG(99)
	for round := 0; round < 6; round++ {
		randomPowers(t, rng, m)
		if _, err := m.SteadyState(1e-4, 0); err != nil {
			t.Fatal(err)
		}
		check("steady")
	}

	// A regulator exactly as hot as the hottest block: the block wins.
	tmax, _ := refMaxTemp(m)
	vrNode := m.nBlocks + 3
	hotBlock := 0
	for i := 0; i < m.nBlocks; i++ {
		if m.temp[i] > m.temp[hotBlock] {
			hotBlock = i
		}
	}
	m.temp[hotBlock] = tmax + 5
	m.temp[vrNode] = tmax + 5
	check("block-regulator tie")
	if _, where, _ := m.Extremes(); strings.HasPrefix(where, "vr") {
		t.Errorf("tie went to the regulator %q", where)
	}
	// A regulator strictly hotter wins.
	m.temp[vrNode] = math.Nextafter(tmax+5, math.Inf(1))
	check("regulator hotspot")

	// NaN nodes are skipped by both scans.
	m.temp[hotBlock] = math.NaN()
	m.temp[0] = math.NaN()
	check("NaN nodes")
	for i := 0; i < m.nBlocks+m.nVRs; i++ {
		m.temp[i] = math.NaN()
	}
	check("all-NaN die")
}
