package pdn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"thermogater/internal/floorplan"
)

func newMesh(t *testing.T, domain int) (*Mesh, *floorplan.Chip) {
	t.Helper()
	chip := floorplan.MustPOWER8()
	m, err := NewMesh(chip, domain, DefaultMeshConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m, chip
}

func TestNewMeshValidation(t *testing.T) {
	chip := floorplan.MustPOWER8()
	if _, err := NewMesh(nil, 0, DefaultMeshConfig()); err == nil {
		t.Error("nil chip accepted")
	}
	if _, err := NewMesh(chip, -1, DefaultMeshConfig()); err == nil {
		t.Error("negative domain accepted")
	}
	if _, err := NewMesh(chip, 99, DefaultMeshConfig()); err == nil {
		t.Error("out-of-range domain accepted")
	}
	bad := DefaultMeshConfig()
	bad.PitchMM = 0
	if _, err := NewMesh(chip, 0, bad); err == nil {
		t.Error("zero pitch accepted")
	}
	bad = DefaultMeshConfig()
	bad.SheetOhm = 0
	if _, err := NewMesh(chip, 0, bad); err == nil {
		t.Error("zero sheet resistance accepted")
	}
}

func TestMeshGridCoversDomain(t *testing.T) {
	m, chip := newMesh(t, 0)
	nx, ny := m.Size()
	d := chip.Domains[0]
	wantNx := int(math.Ceil(d.Bounds.W/DefaultMeshConfig().PitchMM)) + 1
	if nx != wantNx {
		t.Errorf("nx = %d, want %d", nx, wantNx)
	}
	if ny < 2 || nx < 2 {
		t.Errorf("degenerate grid %dx%d", nx, ny)
	}
}

func TestMeshSolveCurrentConservation(t *testing.T) {
	m, chip := newMesh(t, 0)
	cur := loadedCurrents(chip)
	d := chip.Domains[0]
	active := make([]bool, len(d.Regulators))
	for i := range active {
		active[i] = true
	}
	sol, err := m.Solve(cur, active)
	if err != nil {
		t.Fatal(err)
	}
	var totalLoad float64
	for _, bid := range d.Blocks {
		totalLoad += cur[bid]
	}
	if math.Abs(sol.SupplyA-totalLoad) > 0.01*totalLoad {
		t.Errorf("supplied %vA for %vA load (Kirchhoff violated)", sol.SupplyA, totalLoad)
	}
}

func TestMeshGatingRaisesDrop(t *testing.T) {
	m, chip := newMesh(t, 0)
	cur := loadedCurrents(chip)
	nVR := len(chip.Domains[0].Regulators)
	all := make([]bool, nVR)
	for i := range all {
		all[i] = true
	}
	allOn, err := m.Solve(cur, all)
	if err != nil {
		t.Fatal(err)
	}
	// Gate regulators one by one: max drop must be non-decreasing.
	prev := allOn.MaxPct
	mask := append([]bool(nil), all...)
	for i := 0; i < nVR-1; i++ {
		mask[i] = false
		sol, err := m.Solve(cur, mask)
		if err != nil {
			t.Fatal(err)
		}
		if sol.MaxPct < prev-1e-9 {
			t.Fatalf("gating regulator %d reduced max drop: %v -> %v", i, prev, sol.MaxPct)
		}
		prev = sol.MaxPct
	}
}

func TestMeshDropScalesLinearly(t *testing.T) {
	m, chip := newMesh(t, 0)
	cur := loadedCurrents(chip)
	half := make([]float64, len(cur))
	for i := range cur {
		half[i] = cur[i] / 2
	}
	active := make([]bool, len(chip.Domains[0].Regulators))
	for i := range active {
		active[i] = true
	}
	full, err := m.Solve(cur, active)
	if err != nil {
		t.Fatal(err)
	}
	halfSol, err := m.Solve(half, active)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full.MaxPct-2*halfSol.MaxPct) > 0.02*full.MaxPct {
		t.Errorf("drop not linear in current: %v vs 2×%v", full.MaxPct, halfSol.MaxPct)
	}
}

func TestMeshSolveValidation(t *testing.T) {
	m, chip := newMesh(t, 0)
	cur := loadedCurrents(chip)
	nVR := len(chip.Domains[0].Regulators)
	if _, err := m.Solve(cur[:3], make([]bool, nVR)); err == nil {
		t.Error("short current vector accepted")
	}
	if _, err := m.Solve(cur, make([]bool, 2)); err == nil {
		t.Error("wrong mask size accepted")
	}
	if _, err := m.Solve(cur, make([]bool, nVR)); err == nil {
		t.Error("all-off mask accepted")
	}
}

func TestMeshL3Domain(t *testing.T) {
	// L3 domains (3 regulators, wide flat banks) must solve too.
	chip := floorplan.MustPOWER8()
	domID := chip.L3Domains()[0]
	m, err := NewMesh(chip, domID, DefaultMeshConfig())
	if err != nil {
		t.Fatal(err)
	}
	cur := loadedCurrents(chip)
	active := []bool{true, false, false}
	sol, err := m.Solve(cur, active)
	if err != nil {
		t.Fatal(err)
	}
	if sol.MaxPct <= 0 {
		t.Error("no drop under load")
	}
}

// The differential cross-check of the path-resistance model against the
// mesh. Its statistic is the median, over a domain kind's seeded cases,
// of the path model's worst drop divided by the mesh's. One case's ratio
// depends strongly on its mask (the core cases span [0.48, 0.96]), so a
// band wide enough to hold every case would pass a ×1.5 sheet-resistance
// error; the median moves by about 10 % under that error. Each band is
// the median measured at the committed physics ± 5 %.
const (
	meshDiffSeed = 23
	// meshDiffCases random (mask, currents) cases are drawn per domain.
	meshDiffCases = 24

	// Core domains 0 and 1: measured median 0.759.
	coreRatioLo, coreRatioHi = 0.721, 0.797
	// The first L3 domain: measured median 0.262. DefaultMeshConfig is
	// calibrated on core domains; on the wide, flat L3 banks the path
	// model reads only 17-35 % of the mesh's worst drop.
	l3RatioLo, l3RatioHi = 0.249, 0.275

	// maxKCLResidualA bounds ‖A·v − load‖∞ of every mesh solve: the
	// direct solve leaves rounding error only (measured 7.6e-14 A), a
	// wrong matrix entry or a broken substitution leaves whole amps.
	maxKCLResidualA = 1e-9
	// minRankAgreement is the least share of block pairs both models must
	// order alike in TestMeshPerBlockRankCorrelation.
	minRankAgreement = 0.7
)

// kclResidual returns the worst per-node Kirchhoff current residual
// |Σ_adj g·(v_i − v_j) + srcG_i·v_i − load_i| of a solved drop field. It
// assembles the 5-point stencil itself, independently of factor.go.
func kclResidual(t *testing.T, m *Mesh, cur []float64, mask []bool, v []float64) float64 {
	t.Helper()
	load, srcG, err := m.prepare(cur, mask)
	if err != nil {
		t.Fatal(err)
	}
	g := 1 / m.cfg.SheetOhm
	var worst float64
	for i := range v {
		ix, iy := i%m.nx, i/m.nx
		r := srcG[i]*v[i] - load[i]
		if ix > 0 {
			r += g * (v[i] - v[i-1])
		}
		if ix < m.nx-1 {
			r += g * (v[i] - v[i+1])
		}
		if iy > 0 {
			r += g * (v[i] - v[i-m.nx])
		}
		if iy < m.ny-1 {
			r += g * (v[i] - v[i+m.nx])
		}
		worst = math.Max(worst, math.Abs(r))
	}
	return worst
}

// solveBoth runs one case through both models.
func solveBoth(t *testing.T, grid *Network, m *Mesh, cur []float64, mask []bool) (DomainNoise, *MeshSolution) {
	t.Helper()
	dn, err := grid.SteadyNoise(m.domain, cur, mask)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := m.Solve(cur, mask)
	if err != nil {
		t.Fatal(err)
	}
	return dn, sol
}

type meshCase struct {
	domain int
	cur    []float64
	mask   []bool
}

// meshKind is one domain kind of the differential set: its seeded cases
// and the committed band on their median path/mesh worst-drop ratio.
type meshKind struct {
	name   string
	cases  []meshCase
	lo, hi float64
}

// diffMeshKinds draws the seeded differential case set: meshDiffCases
// random (mask, currents) cases on each of core domains 0 and 1 and on
// the first L3 domain.
func diffMeshKinds(chip *floorplan.Chip) []meshKind {
	rng := rand.New(rand.NewSource(meshDiffSeed))
	kinds := []meshKind{
		{name: "core", lo: coreRatioLo, hi: coreRatioHi},
		{name: "L3", lo: l3RatioLo, hi: l3RatioHi},
	}
	for i, domains := range [][]int{{0, 1}, chip.L3Domains()[:1]} {
		for _, domain := range domains {
			for k := 0; k < meshDiffCases; k++ {
				cur, mask := randomLoad(rng, chip, domain)
				kinds[i].cases = append(kinds[i].cases, meshCase{domain, cur, mask})
			}
		}
	}
	return kinds
}

// randomLoad draws one case: a current per block of the domain and a mask
// with each regulator active with probability ½ (at least one active).
func randomLoad(rng *rand.Rand, chip *floorplan.Chip, domain int) ([]float64, []bool) {
	d := &chip.Domains[domain]
	cur := make([]float64, len(chip.Blocks))
	for _, bid := range d.Blocks {
		cur[bid] = 0.5 + 3.5*rng.Float64()
	}
	mask := make([]bool, len(d.Regulators))
	for ri := range mask {
		mask[ri] = rng.Intn(2) == 0
	}
	mask[rng.Intn(len(mask))] = true
	return cur, mask
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[len(s)/2-1] + s[len(s)/2])
}

// TestMeshDirectSolveSatisfiesKCL checks the direct solve exactly: on
// every differential case the drop field must satisfy Kirchhoff's current
// law at every node to rounding.
func TestMeshDirectSolveSatisfiesKCL(t *testing.T) {
	chip := floorplan.MustPOWER8()
	meshes := map[int]*Mesh{}
	var worst float64
	for _, kind := range diffMeshKinds(chip) {
		for _, c := range kind.cases {
			m := meshes[c.domain]
			if m == nil {
				m, _ = newMesh(t, c.domain)
				meshes[c.domain] = m
			}
			sol, err := m.Solve(c.cur, c.mask)
			if err != nil {
				t.Fatal(err)
			}
			r := kclResidual(t, m, c.cur, c.mask, sol.DropV)
			worst = math.Max(worst, r)
			if r > maxKCLResidualA {
				t.Errorf("domain %d mask %v: KCL residual %.3gA, bound %.3gA", c.domain, c.mask, r, maxKCLResidualA)
			}
		}
	}
	t.Logf("worst KCL residual %.3gA", worst)
}

// TestMeshValidatesPathModel is the seeded differential cross-check of the
// fast path-resistance model against the nodal mesh, the analogue of the
// paper's SPICE validation of VoltSpot. Per domain kind, the median
// path/mesh worst-drop ratio must sit in its committed band, and on the
// core domain both models must agree on which gating configuration is
// noisier.
func TestMeshValidatesPathModel(t *testing.T) {
	chip := floorplan.MustPOWER8()
	grid, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	meshes := map[int]*Mesh{}
	for _, kind := range diffMeshKinds(chip) {
		var ratios []float64
		for _, c := range kind.cases {
			m := meshes[c.domain]
			if m == nil {
				m, _ = newMesh(t, c.domain)
				meshes[c.domain] = m
			}
			dn, sol := solveBoth(t, grid, m, c.cur, c.mask)
			ratios = append(ratios, dn.MaxPct/sol.MaxPct)
		}
		med := median(ratios)
		t.Logf("%s: median path/mesh ratio %.4f over %d cases (range [%.3f, %.3f])",
			kind.name, med, len(ratios), slices.Min(ratios), slices.Max(ratios))
		if med < kind.lo || med > kind.hi {
			t.Errorf("%s: median path/mesh worst-drop ratio %.4f outside [%.3f, %.3f]", kind.name, med, kind.lo, kind.hi)
		}
	}

	// Ordering case: all-on, memory-side only, and three logic-side
	// regulators under the nominal load.
	m := meshes[0]
	cur := loadedCurrents(chip)
	logic, memory, err := chip.LogicSideRegulators(0)
	if err != nil {
		t.Fatal(err)
	}
	idxOf := func(rid int) int { return slices.Index(chip.Domains[0].Regulators, rid) }
	memOnly := make([]bool, len(chip.Domains[0].Regulators))
	for _, rid := range memory {
		memOnly[idxOf(rid)] = true
	}
	logicOnly := make([]bool, len(memOnly))
	for _, rid := range logic[:3] {
		logicOnly[idxOf(rid)] = true
	}
	configs := []struct {
		name string
		mask []bool
	}{{"all-on", grid.AllOnMask(0)}, {"memory-side", memOnly}, {"logic-side", logicOnly}}
	var pathPct, meshPct []float64
	for _, c := range configs {
		dn, sol := solveBoth(t, grid, m, cur, c.mask)
		pathPct = append(pathPct, dn.MaxPct)
		meshPct = append(meshPct, sol.MaxPct)
	}
	for i := range configs {
		for j := i + 1; j < len(configs); j++ {
			if (pathPct[i] < pathPct[j]) != (meshPct[i] < meshPct[j]) {
				t.Errorf("models disagree on ordering %s vs %s: path %v/%v mesh %v/%v",
					configs[i].name, configs[j].name, pathPct[i], pathPct[j], meshPct[i], meshPct[j])
			}
		}
	}
}

// TestMeshPerBlockRankCorrelation: both models must agree on which blocks
// are the noisy ones, not just on the maximum.
func TestMeshPerBlockRankCorrelation(t *testing.T) {
	chip := floorplan.MustPOWER8()
	grid, err := NewNetwork(chip, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, _ := newMesh(t, 0)
	mask := make([]bool, len(chip.Domains[0].Regulators))
	mask[0], mask[4], mask[8] = true, true, true
	dn, sol := solveBoth(t, grid, m, loadedCurrents(chip), mask)
	agree, pairs := 0, 0
	for i := range dn.PerBlockPct {
		for j := i + 1; j < len(dn.PerBlockPct); j++ {
			pairs++
			if (dn.PerBlockPct[i] < dn.PerBlockPct[j]) == (sol.PerBlockPct[i] < sol.PerBlockPct[j]) {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(pairs); frac < minRankAgreement {
		t.Errorf("models agree on only %.0f%% of block orderings, want >= %.0f%%", 100*frac, 100*minRankAgreement)
	}
}
