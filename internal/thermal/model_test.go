package thermal

import (
	"math"
	"strings"
	"testing"

	"thermogater/internal/floorplan"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(floorplan.MustPOWER8(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func zeroPower(m *Model) ([]float64, []float64) {
	return make([]float64, len(m.Chip().Blocks)), make([]float64, len(m.Chip().Regulators))
}

func TestNewModelValidation(t *testing.T) {
	if _, err := NewModel(nil, DefaultConfig()); err == nil {
		t.Error("nil chip accepted")
	}
	bad := DefaultConfig()
	bad.SinkResKPerW = 0
	if _, err := NewModel(floorplan.MustPOWER8(), bad); err == nil {
		t.Error("invalid config accepted")
	}
	var ce *ConfigError
	err := bad.Validate()
	if err == nil {
		t.Fatal("Validate accepted zero sink resistance")
	}
	if !strings.Contains(err.Error(), "SinkResKPerW") {
		t.Errorf("error %q does not name the field", err)
	}
	_ = ce
}

func TestZeroPowerStaysAtAmbient(t *testing.T) {
	m := newModel(t)
	bp, vp := zeroPower(m)
	if err := m.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if err := m.Step(0.01); err != nil {
		t.Fatal(err)
	}
	amb := m.Config().AmbientC
	max, _, grad := m.Extremes()
	if math.Abs(max-amb) > 1e-9 {
		t.Errorf("unpowered chip at %v°C, ambient is %v", max, amb)
	}
	if math.Abs(grad) > 1e-9 {
		t.Errorf("unpowered gradient = %v", grad)
	}
}

func TestSinkTempMatchesTotalPower(t *testing.T) {
	// In equilibrium all injected heat leaves through the sink, so
	// T_sink = T_amb + P_total × R_sink exactly.
	m := newModel(t)
	bp, vp := zeroPower(m)
	var total float64
	for i := range bp {
		bp[i] = 1.0
		total += 1.0
	}
	for r := range vp {
		vp[r] = 0.1
		total += 0.1
	}
	if err := m.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SteadyState(1e-7, 0); err != nil {
		t.Fatal(err)
	}
	want := m.Config().AmbientC + total*m.Config().SinkResKPerW
	if got := m.SinkTemp(); math.Abs(got-want) > 1e-3 {
		t.Errorf("sink temp = %v, want %v", got, want)
	}
}

func TestHotspotLocality(t *testing.T) {
	m := newModel(t)
	chip := m.Chip()
	bp, vp := zeroPower(m)
	exu, _ := chip.BlockByName("core0/EXU")
	bp[exu.ID] = 5
	if err := m.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SteadyState(1e-6, 0); err != nil {
		t.Fatal(err)
	}
	max, where, _ := m.Extremes()
	if where != "core0/EXU" {
		t.Errorf("hotspot at %q, want core0/EXU", where)
	}
	if max <= m.Config().AmbientC {
		t.Error("powered hotspot not above ambient")
	}
	// Adjacent block warmer than a far corner block.
	isu, _ := chip.BlockByName("core0/ISU")
	farL3, _ := chip.BlockByName("l3bank7/L3")
	if m.BlockTemp(isu.ID) <= m.BlockTemp(farL3.ID) {
		t.Errorf("neighbour ISU %v not hotter than far L3 %v",
			m.BlockTemp(isu.ID), m.BlockTemp(farL3.ID))
	}
}

func TestRegulatorRiseAboveHost(t *testing.T) {
	// A powered regulator in equilibrium sits P/G above its host block.
	m := newModel(t)
	bp, vp := zeroPower(m)
	const p = 0.2
	vp[0] = p
	if err := m.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SteadyState(1e-7, 0); err != nil {
		t.Fatal(err)
	}
	host := m.Chip().Regulators[0].NearestBlock
	rise := m.VRTemp(0) - m.BlockTemp(host)
	want := p / m.Config().GRegulatorWPerK
	if math.Abs(rise-want) > 0.01*want {
		t.Errorf("VR rise above host = %v, want %v", rise, want)
	}
}

func TestVRTimeConstant(t *testing.T) {
	// The regulator node must respond on the millisecond scale: after one
	// time constant τ = C/G it covers ≈63% of its step response.
	m := newModel(t)
	bp, vp := zeroPower(m)
	if err := m.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	// Settle the substrate at ambient first, then step VR 0 power.
	vp[0] = 0.2
	if err := m.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	tau := cfg.RegulatorCapJPerK / cfg.GRegulatorWPerK
	if tau < 0.2e-3 || tau > 2.5e-3 {
		t.Fatalf("VR time constant %v s outside the sub-millisecond design window", tau)
	}
	start := m.VRTemp(0)
	if err := m.Step(tau); err != nil {
		t.Fatal(err)
	}
	// The host block barely moves over one VR τ, so the asymptote is
	// ≈ host + P/G.
	host := m.Chip().Regulators[0].NearestBlock
	target := m.BlockTemp(host) + vp[0]/cfg.GRegulatorWPerK
	frac := (m.VRTemp(0) - start) / (target - start)
	if frac < 0.55 || frac > 0.72 {
		t.Errorf("after one τ the VR covered %v of its step, want ≈0.63", frac)
	}
}

func TestTransientApproachesSteadyState(t *testing.T) {
	m := newModel(t)
	bp, vp := zeroPower(m)
	for i := range bp {
		bp[i] = 0.8
	}
	if err := m.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	// Reference steady state on a twin model.
	ref := newModel(t)
	if err := ref.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.SteadyState(1e-7, 0); err != nil {
		t.Fatal(err)
	}
	// Integrate long enough for the sink (slowest node) to settle.
	for i := 0; i < 400; i++ {
		if err := m.Step(0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(m.Chip().Blocks); i++ {
		if d := math.Abs(m.BlockTemp(i) - ref.BlockTemp(i)); d > 0.1 {
			t.Fatalf("block %d transient %v vs steady %v", i, m.BlockTemp(i), ref.BlockTemp(i))
		}
	}
}

func TestStepRejectsBadInput(t *testing.T) {
	m := newModel(t)
	if err := m.Step(0); err == nil {
		t.Error("zero step accepted")
	}
	if err := m.Step(-1); err == nil {
		t.Error("negative step accepted")
	}
}

func TestSetPowerValidation(t *testing.T) {
	m := newModel(t)
	bp, vp := zeroPower(m)
	if err := m.SetPower(bp[:3], vp); err == nil {
		t.Error("short block power accepted")
	}
	if err := m.SetPower(bp, vp[:5]); err == nil {
		t.Error("short VR power accepted")
	}
	bp[0] = -1
	if err := m.SetPower(bp, vp); err == nil {
		t.Error("negative block power accepted")
	}
	bp[0] = math.NaN()
	if err := m.SetPower(bp, vp); err == nil {
		t.Error("NaN block power accepted")
	}
	bp[0] = 0
	vp[0] = -0.1
	if err := m.SetPower(bp, vp); err == nil {
		t.Error("negative VR power accepted")
	}
}

func TestSteadyStateValidation(t *testing.T) {
	m := newModel(t)
	if _, err := m.SteadyState(0, 10); err == nil {
		t.Error("zero tolerance accepted")
	}
	bp, vp := zeroPower(m)
	for i := range bp {
		bp[i] = 1.5
	}
	if err := m.SetPower(bp, vp); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SteadyState(1e-9, 1); err == nil {
		t.Error("impossible iteration budget converged")
	}
}

func TestResetUniform(t *testing.T) {
	m := newModel(t)
	bp, vp := zeroPower(m)
	bp[0] = 10
	_ = m.SetPower(bp, vp)
	_ = m.Step(1)
	m.Reset(55)
	max, _, grad := m.Extremes()
	if max != 55 || grad != 0 {
		t.Errorf("Reset(55): max %v gradient %v", max, grad)
	}
}

func TestGradientAndMaxTempConsistency(t *testing.T) {
	m := newModel(t)
	bp, vp := zeroPower(m)
	exu, _ := m.Chip().BlockByName("core3/EXU")
	bp[exu.ID] = 6
	vp[27+4] = 0.3 // a VR of core 3 (domain 3 regulators are 27..35)
	_ = m.SetPower(bp, vp)
	if _, err := m.SteadyState(1e-6, 0); err != nil {
		t.Fatal(err)
	}
	max, where, grad := m.Extremes()
	if max <= m.Config().AmbientC {
		t.Error("max temp below ambient")
	}
	if grad <= 0 {
		t.Error("non-positive gradient with a hotspot present")
	}
	if where == "" {
		t.Error("Extremes returned empty location")
	}
	// A hot enough regulator node must be the hottest.
	vp[27+4] = 3.0
	_ = m.SetPower(bp, vp)
	if _, err := m.SteadyState(1e-6, 0); err != nil {
		t.Fatal(err)
	}
	_, where, _ = m.Extremes()
	if !strings.HasPrefix(where, "vr") {
		t.Errorf("expected a regulator hotspot, got %q", where)
	}
}

func TestHeatMap(t *testing.T) {
	m := newModel(t)
	bp, vp := zeroPower(m)
	exu, _ := m.Chip().BlockByName("core0/EXU")
	bp[exu.ID] = 8
	_ = m.SetPower(bp, vp)
	if _, err := m.SteadyState(1e-6, 0); err != nil {
		t.Fatal(err)
	}
	grid, err := m.HeatMap(42, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 42 || len(grid[0]) != 42 {
		t.Fatalf("grid is %dx%d", len(grid), len(grid[0]))
	}
	// The hottest cell must lie inside core0's tile (top-left region).
	var hx, hy int
	best := math.Inf(-1)
	for y := range grid {
		for x := range grid[y] {
			if grid[y][x] > best {
				best, hx, hy = grid[y][x], x, y
			}
		}
	}
	if hx > 10 || hy > 9 {
		t.Errorf("hottest cell at (%d,%d), expected inside core0 tile", hx, hy)
	}
	if _, err := m.HeatMap(0, 10); err == nil {
		t.Error("zero-width heat map accepted")
	}
}

func TestEnergyFlowDirection(t *testing.T) {
	// Heating only the die must never cool any node below ambient.
	m := newModel(t)
	bp, vp := zeroPower(m)
	for i := range bp {
		bp[i] = 2
	}
	_ = m.SetPower(bp, vp)
	for s := 0; s < 100; s++ {
		if err := m.Step(0.01); err != nil {
			t.Fatal(err)
		}
	}
	amb := m.Config().AmbientC
	for i := 0; i < len(m.Chip().Blocks); i++ {
		if m.BlockTemp(i) < amb-1e-9 {
			t.Fatalf("block %d below ambient", i)
		}
	}
}

// TestCompactLinearity: with fixed power inputs the RC network is linear,
// so steady-state temperature rises superpose: rise(P1+P2) =
// rise(P1) + rise(P2).
func TestCompactLinearity(t *testing.T) {
	chip := floorplan.MustPOWER8()
	amb := DefaultConfig().AmbientC
	solve := func(fill func(bp, vp []float64)) []float64 {
		m, err := NewModel(chip, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		bp := make([]float64, len(chip.Blocks))
		vp := make([]float64, len(chip.Regulators))
		fill(bp, vp)
		if err := m.SetPower(bp, vp); err != nil {
			t.Fatal(err)
		}
		if _, err := m.SteadyState(1e-7, 0); err != nil {
			t.Fatal(err)
		}
		return m.BlockTemps(nil)
	}
	exu, _ := chip.BlockByName("core0/EXU")
	l3, _ := chip.BlockByName("l3bank5/L3")
	t1 := solve(func(bp, vp []float64) { bp[exu.ID] = 4 })
	t2 := solve(func(bp, vp []float64) { bp[l3.ID] = 3; vp[10] = 0.2 })
	both := solve(func(bp, vp []float64) { bp[exu.ID] = 4; bp[l3.ID] = 3; vp[10] = 0.2 })
	for i := range both {
		sum := (t1[i] - amb) + (t2[i] - amb) + amb
		if math.Abs(both[i]-sum) > 0.01 {
			t.Fatalf("block %d: superposition violated: %v vs %v", i, both[i], sum)
		}
	}
}

// TestVRHeatFlowsIntoHostBlock: in equilibrium, all of a regulator's loss
// transits its host block, raising it above an unpowered neighbour.
func TestVRHeatFlowsIntoHostBlock(t *testing.T) {
	m := newModel(t)
	chip := m.Chip()
	bp, vp := zeroPower(m)
	// Power all regulators of core 0's domain only.
	for _, rid := range chip.Domains[0].Regulators {
		vp[rid] = 0.15
	}
	_ = m.SetPower(bp, vp)
	if _, err := m.SteadyState(1e-7, 0); err != nil {
		t.Fatal(err)
	}
	// Core 0 blocks must be warmer than core 7's (far corner) blocks.
	exu0, _ := chip.BlockByName("core0/EXU")
	exu7, _ := chip.BlockByName("core7/EXU")
	if m.BlockTemp(exu0.ID) <= m.BlockTemp(exu7.ID)+0.1 {
		t.Errorf("VR heat did not warm the host region: core0 EXU %v vs core7 EXU %v",
			m.BlockTemp(exu0.ID), m.BlockTemp(exu7.ID))
	}
}
