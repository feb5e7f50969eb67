package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thermogater/internal/floorplan"
)

func newGrid(t *testing.T, nx, ny int) *GridModel {
	t.Helper()
	g, err := NewGridModel(floorplan.MustPOWER8(), DefaultConfig(), nx, ny)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGridModelValidation(t *testing.T) {
	if _, err := NewGridModel(nil, DefaultConfig(), 8, 8); err == nil {
		t.Error("nil chip accepted")
	}
	if _, err := NewGridModel(floorplan.MustPOWER8(), DefaultConfig(), 1, 8); err == nil {
		t.Error("1-wide grid accepted")
	}
	bad := DefaultConfig()
	bad.KSiWPerMMK = 0
	if _, err := NewGridModel(floorplan.MustPOWER8(), bad, 8, 8); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestGridZeroPowerAtAmbient(t *testing.T) {
	g := newGrid(t, 16, 16)
	bp := make([]float64, len(floorplan.MustPOWER8().Blocks))
	vp := make([]float64, floorplan.TotalVRs)
	if err := g.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SteadyState(1e-6, 0); err != nil {
		t.Fatal(err)
	}
	max, _ := g.MaxTemp()
	if math.Abs(max-DefaultConfig().AmbientC) > 1e-6 {
		t.Errorf("unpowered grid at %v°C", max)
	}
}

func TestGridSinkEnergyBalance(t *testing.T) {
	g := newGrid(t, 24, 24)
	chip := floorplan.MustPOWER8()
	bp := make([]float64, len(chip.Blocks))
	vp := make([]float64, floorplan.TotalVRs)
	var total float64
	for i := range bp {
		bp[i] = 1.2
		total += 1.2
	}
	if err := g.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SteadyState(1e-6, 0); err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig().AmbientC + total*DefaultConfig().SinkResKPerW
	if got := g.SinkTemp(); math.Abs(got-want) > 0.05 {
		t.Errorf("sink temp %v, want %v", got, want)
	}
}

func TestGridSetPowerValidation(t *testing.T) {
	g := newGrid(t, 8, 8)
	chip := floorplan.MustPOWER8()
	bp := make([]float64, len(chip.Blocks))
	vp := make([]float64, floorplan.TotalVRs)
	if err := g.SetPower(bp[:2], vp); err == nil {
		t.Error("short block power accepted")
	}
	if err := g.SetPower(bp, vp[:2]); err == nil {
		t.Error("short VR power accepted")
	}
	bp[0] = -1
	if err := g.SetPower(bp, vp); err == nil {
		t.Error("negative power accepted")
	}
	bp[0] = math.NaN()
	if err := g.SetPower(bp, vp); err == nil {
		t.Error("NaN power accepted")
	}
}

func TestGridHotspotUnderPoweredBlock(t *testing.T) {
	g := newGrid(t, 42, 42)
	chip := floorplan.MustPOWER8()
	bp := make([]float64, len(chip.Blocks))
	vp := make([]float64, floorplan.TotalVRs)
	exu, _ := chip.BlockByName("core0/EXU")
	bp[exu.ID] = 6
	if err := g.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SteadyState(1e-6, 0); err != nil {
		t.Fatal(err)
	}
	_, at := g.MaxTemp()
	if !exu.R.Contains(at) {
		t.Errorf("hotspot at %v outside the powered EXU %v", at, exu.R)
	}
}

// TestGridResolvesRegulatorHotspot: with one regulator the only heat
// source, the grid's peak is the regulator's own cell and reads above its
// host block's average.
func TestGridResolvesRegulatorHotspot(t *testing.T) {
	g := newGrid(t, 42, 42)
	chip := floorplan.MustPOWER8()
	bp := make([]float64, len(chip.Blocks))
	vp := make([]float64, floorplan.TotalVRs)
	vp[0] = 0.25
	if err := g.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SteadyState(1e-6, 0); err != nil {
		t.Fatal(err)
	}
	max, at := g.MaxTemp()
	reg := chip.Regulators[0]
	if at.DistanceTo(reg.Pos) > 0.5 {
		t.Errorf("peak at %v, regulator at %v", at, reg.Pos)
	}
	if g.VRTemp(0) != max {
		t.Errorf("regulator cell %v°C is not the peak %v°C", g.VRTemp(0), max)
	}
	if avg := g.BlockTemp(reg.NearestBlock); max <= avg {
		t.Errorf("regulator peak %v not above its block average %v", max, avg)
	}
}

func TestGridSteadyStateValidation(t *testing.T) {
	g := newGrid(t, 8, 8)
	if _, err := g.SteadyState(0, 10); err == nil {
		t.Error("zero tolerance accepted")
	}
	chip := floorplan.MustPOWER8()
	bp := make([]float64, len(chip.Blocks))
	for i := range bp {
		bp[i] = 2
	}
	vp := make([]float64, floorplan.TotalVRs)
	if err := g.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SteadyState(1e-12, 2); err == nil {
		t.Error("impossible budget converged")
	}
}

// The differential cross-check of the compact model against the fine
// grid. Each bound is the worst |ΔT| measured at the committed physics
// plus a 25 % margin, rounded up; each sits below what a known physics
// error produces (lateral Si conductance ×0.1 reads 3.84 / 8.97 °C on the
// two block classes, regulator-to-host coupling ×0.5 reads 24.4 °C on the
// regulators), so such an error fails here instead of passing silently.
const (
	diffSeed = 23
	// The case set: diffRandomMaps heterogeneous random power maps, then
	// diffHotspots single-block hotspots, on a diffGridN² lattice.
	diffRandomMaps = 6
	diffHotspots   = 4
	diffGridN      = 42

	// Worst block ΔT on the random maps: measured 2.40 °C.
	maxBlockDiffRandomC = 3.0
	// Worst block ΔT on the hotspot maps: measured 4.61 °C.
	maxBlockDiffHotspotC = 5.8
	// Worst ΔT of a powered regulator, the compact VR node against the
	// grid cell its loss is injected into: measured 11.65 °C.
	maxVRDiffC = 14.6
)

type thermalCase struct {
	name    string
	hotspot bool
	bp, vp  []float64
}

// diffThermalCases draws the seeded case set: random heterogeneous block
// power with a random subset of regulators powered, then single-block
// hotspots, each with one powered regulator.
func diffThermalCases(chip *floorplan.Chip) []thermalCase {
	rng := rand.New(rand.NewSource(diffSeed))
	var cases []thermalCase
	for k := 0; k < diffRandomMaps; k++ {
		c := thermalCase{
			name: fmt.Sprintf("random%d", k),
			bp:   make([]float64, len(chip.Blocks)),
			vp:   make([]float64, len(chip.Regulators)),
		}
		for i := range c.bp {
			c.bp[i] = 0.3 + 3.2*rng.Float64()
		}
		for r := range c.vp {
			if rng.Intn(2) == 0 {
				c.vp[r] = 0.02 + 0.2*rng.Float64()
			}
		}
		cases = append(cases, c)
	}
	for k := 0; k < diffHotspots; k++ {
		c := thermalCase{
			name:    fmt.Sprintf("hotspot%d", k),
			hotspot: true,
			bp:      make([]float64, len(chip.Blocks)),
			vp:      make([]float64, len(chip.Regulators)),
		}
		c.bp[rng.Intn(len(c.bp))] = 4 + 4*rng.Float64()
		c.vp[rng.Intn(len(c.vp))] = 0.1 + 0.2*rng.Float64()
		cases = append(cases, c)
	}
	return cases
}

// TestGridValidatesCompactModel is the seeded differential cross-check of
// the compact block-mode network against the fine grid: on every case,
// block temperatures and the temperatures of powered regulators must
// agree within the committed per-class bounds and the hottest blocks must
// be of one kind; on the hotspot cases the grid must also resolve each
// powered regulator's cell above its host block's average.
func TestGridValidatesCompactModel(t *testing.T) {
	chip := floorplan.MustPOWER8()
	cfg := DefaultConfig()
	compact, err := NewModel(chip, cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewGridModel(chip, cfg, diffGridN, diffGridN)
	if err != nil {
		t.Fatal(err)
	}
	var worstRandom, worstHotspot, worstVR float64
	for _, c := range diffThermalCases(chip) {
		if err := compact.SetPower(c.bp, c.vp); err != nil {
			t.Fatal(err)
		}
		if _, err := compact.SteadyState(1e-6, 0); err != nil {
			t.Fatal(err)
		}
		if err := grid.SetPower(c.bp, c.vp); err != nil {
			t.Fatal(err)
		}
		if _, err := grid.SteadyState(1e-5, 0); err != nil {
			t.Fatal(err)
		}
		var block float64
		hotC, hotG := 0, 0
		for i := range chip.Blocks {
			block = math.Max(block, math.Abs(compact.BlockTemp(i)-grid.BlockTemp(i)))
			if compact.BlockTemp(i) > compact.BlockTemp(hotC) {
				hotC = i
			}
			if grid.BlockTemp(i) > grid.BlockTemp(hotG) {
				hotG = i
			}
		}
		if chip.Blocks[hotC].Kind != chip.Blocks[hotG].Kind {
			t.Errorf("%s: hottest blocks differ in kind: compact %s, grid %s",
				c.name, chip.Blocks[hotC].Name, chip.Blocks[hotG].Name)
		}
		var vr float64
		for r, p := range c.vp {
			if p == 0 {
				continue
			}
			vr = math.Max(vr, math.Abs(compact.VRTemp(r)-grid.VRTemp(r)))
			host := chip.Regulators[r].NearestBlock
			if c.hotspot && grid.VRTemp(r) <= grid.BlockTemp(host) {
				t.Errorf("%s: grid regulator %d cell %.2f°C not above its host block's average %.2f°C",
					c.name, r, grid.VRTemp(r), grid.BlockTemp(host))
			}
		}
		worstVR = math.Max(worstVR, vr)
		if c.hotspot {
			worstHotspot = math.Max(worstHotspot, block)
		} else {
			worstRandom = math.Max(worstRandom, block)
		}
	}
	t.Logf("worst block ΔT: random maps %.3f°C, hotspots %.3f°C; worst powered-VR ΔT %.3f°C",
		worstRandom, worstHotspot, worstVR)
	if worstRandom > maxBlockDiffRandomC {
		t.Errorf("random maps: block temperatures diverge by %.2f°C, bound %.2f°C", worstRandom, maxBlockDiffRandomC)
	}
	if worstHotspot > maxBlockDiffHotspotC {
		t.Errorf("hotspot maps: block temperatures diverge by %.2f°C, bound %.2f°C", worstHotspot, maxBlockDiffHotspotC)
	}
	if worstVR > maxVRDiffC {
		t.Errorf("powered regulators diverge by %.2f°C, bound %.2f°C", worstVR, maxVRDiffC)
	}
}
