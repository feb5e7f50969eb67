package sim

import (
	"math"
	"strings"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/fault"
	"thermogater/internal/floorplan"
	"thermogater/internal/pdn"
	"thermogater/internal/workload"
)

// run executes a short simulation for tests.
func run(t *testing.T, policy core.PolicyKind, bench string, mutate func(*Config)) *Result {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(policy, p)
	cfg.DurationMS = 200
	cfg.WarmupEpochs = 25
	cfg.ProfilingEpochs = 80
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	p, _ := workload.ByName("fft")
	good := DefaultConfig(core.AllOn, p)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*Config){
		func(c *Config) { c.Benchmark.DurationMS = 0 },
		func(c *Config) { c.EpochMS = 0 },
		func(c *Config) { c.SubstepMS = 0 },
		func(c *Config) { c.SubstepMS = 2 * c.EpochMS },
		func(c *Config) { c.SubstepMS = 0.3 }, // not a divisor of 1ms
		func(c *Config) { c.DurationMS = -1 },
		func(c *Config) { c.WarmupEpochs = -1 },
		// No epoch past the warm-up: the run would measure nothing.
		func(c *Config) { c.DurationMS = 10; c.WarmupEpochs = 50 },
		func(c *Config) { c.DurationMS = c.WarmupEpochs },
		func(c *Config) { c.DurationMS = 40; c.EpochMS = 2; c.WarmupEpochs = 20 },
		func(c *Config) { c.TrackVR = -2 },
		func(c *Config) { c.TrackVR = floorplan.TotalVRs },
		func(c *Config) { c.Thermal.SinkResKPerW = 0 },
		func(c *Config) { c.PDN.R0Ohm = 0 },
		func(c *Config) { c.Governor.WMAWindow = 0 },
		// NaN and Inf must be rejected everywhere a positive/bounded float
		// is expected: NaN fails every ordered comparison, so naive
		// `v <= 0` guards silently accept it and poison the whole run.
		func(c *Config) { c.EpochMS = math.NaN() },
		func(c *Config) { c.EpochMS = math.Inf(1) },
		func(c *Config) { c.SubstepMS = math.NaN() },
		func(c *Config) { c.SensorNoiseC = math.NaN() },
		func(c *Config) { c.SensorNoiseC = math.Inf(1) },
		func(c *Config) { c.SensorNoiseC = -0.1 },
		func(c *Config) { c.Thermal.SinkResKPerW = math.NaN() },
		func(c *Config) { c.Thermal.SinkResKPerW = math.Inf(1) },
		func(c *Config) { c.Thermal.AmbientC = math.NaN() },
		func(c *Config) { c.Thermal.MaxJunctionC = math.Inf(1) },
		func(c *Config) { c.PDN.R0Ohm = math.NaN() },
		func(c *Config) { c.PDN.R0Ohm = math.Inf(1) },
		func(c *Config) { c.PDN.RippleSigma = math.NaN() },
		func(c *Config) { c.PDN.VddV = math.NaN() },
		func(c *Config) { c.Governor.EpochMS = math.NaN() },
		func(c *Config) { c.Governor.TrendGain = math.NaN() },
		func(c *Config) { c.Governor.EmergencyAccuracy = math.NaN() },
		func(c *Config) { c.Governor.ThermalEmergencyC = math.NaN() },
		func(c *Config) { c.Governor.ThermalEmergencyC = math.Inf(1) },
		func(c *Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.VRStuckOff, Epoch: -1}}}
		},
		func(c *Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.SensorNoise, Unit: 0, Value: math.NaN()}}}
		},
	}
	for i, mut := range muts {
		c := DefaultConfig(core.AllOn, p)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	p, _ := workload.ByName("fft")
	cfg := DefaultConfig(core.AllOn, p)
	cfg.EpochMS = 0
	if _, err := New(cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	a := run(t, core.OracT, "lu_ncb", nil)
	b := run(t, core.OracT, "lu_ncb", nil)
	if a.MaxTempC != b.MaxTempC || a.MaxGradientC != b.MaxGradientC ||
		a.MaxNoisePct != b.MaxNoisePct || a.AvgPlossW != b.AvgPlossW {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
	c := run(t, core.OracT, "lu_ncb", func(cfg *Config) { cfg.Seed = 99 })
	if a.MaxTempC == c.MaxTempC && a.MaxNoisePct == c.MaxNoisePct {
		t.Error("different seeds produced identical results")
	}
}

// TestPolicyLadderThermal reproduces the paper's central thermal ordering
// (Figs. 9 and 10) on a single benchmark: off-chip coolest; OracT below
// all-on; OracV clearly the hottest gated policy; OracVT thermally
// equivalent to OracT; PracT within a degree of OracT.
func TestPolicyLadderThermal(t *testing.T) {
	offchip := run(t, core.OffChip, "lu_ncb", nil)
	allon := run(t, core.AllOn, "lu_ncb", nil)
	oracT := run(t, core.OracT, "lu_ncb", nil)
	oracV := run(t, core.OracV, "lu_ncb", nil)
	oracVT := run(t, core.OracVT, "lu_ncb", nil)
	pracT := run(t, core.PracT, "lu_ncb", nil)

	if offchip.MaxTempC >= allon.MaxTempC {
		t.Errorf("off-chip Tmax %v not below all-on %v", offchip.MaxTempC, allon.MaxTempC)
	}
	if offchip.MaxGradientC >= allon.MaxGradientC {
		t.Errorf("off-chip gradient %v not below all-on %v", offchip.MaxGradientC, allon.MaxGradientC)
	}
	if oracT.MaxTempC >= allon.MaxTempC {
		t.Errorf("OracT Tmax %v not below all-on %v", oracT.MaxTempC, allon.MaxTempC)
	}
	if oracT.MaxGradientC >= allon.MaxGradientC {
		t.Errorf("OracT gradient %v not below all-on %v", oracT.MaxGradientC, allon.MaxGradientC)
	}
	if oracV.MaxTempC <= allon.MaxTempC {
		t.Errorf("OracV Tmax %v not above all-on %v", oracV.MaxTempC, allon.MaxTempC)
	}
	if oracV.MaxTempC <= oracT.MaxTempC {
		t.Errorf("OracV Tmax %v not above OracT %v", oracV.MaxTempC, oracT.MaxTempC)
	}
	// lu_ncb has no voltage emergencies, so OracVT degenerates to OracT
	// exactly (Section 6.2.4).
	if math.Abs(oracVT.MaxTempC-oracT.MaxTempC) > 0.05 {
		t.Errorf("OracVT Tmax %v differs from OracT %v on an emergency-free benchmark",
			oracVT.MaxTempC, oracT.MaxTempC)
	}
	// PracT tracks OracT closely (paper: +0.5°C on full-length runs; short
	// test windows are noisier, so allow up to 2°C here).
	if d := pracT.MaxTempC - oracT.MaxTempC; d < -0.3 || d > 2.0 {
		t.Errorf("PracT Tmax %v too far from OracT %v", pracT.MaxTempC, oracT.MaxTempC)
	}
}

// TestPolicyLadderNoise reproduces the Fig. 11 ordering: all-on is the
// best case; OracT sharply worse; OracV between; the VT variants pull the
// noise back toward all-on.
func TestPolicyLadderNoise(t *testing.T) {
	allon := run(t, core.AllOn, "barnes", nil)
	oracT := run(t, core.OracT, "barnes", nil)
	oracV := run(t, core.OracV, "barnes", nil)
	oracVT := run(t, core.OracVT, "barnes", nil)

	if oracT.MaxNoisePct <= allon.MaxNoisePct {
		t.Errorf("OracT noise %v not above all-on %v", oracT.MaxNoisePct, allon.MaxNoisePct)
	}
	if oracV.MaxNoisePct >= oracT.MaxNoisePct {
		t.Errorf("OracV noise %v not below OracT %v", oracV.MaxNoisePct, oracT.MaxNoisePct)
	}
	// The paper reports OracT noise ≈ +79% over all-on; require at least
	// a +40% penalty so the effect stays strongly visible.
	if oracT.MaxNoisePct < 1.4*allon.MaxNoisePct {
		t.Errorf("OracT noise %v less than 1.4× all-on %v", oracT.MaxNoisePct, allon.MaxNoisePct)
	}
	// OracVT suppresses emergencies relative to OracT.
	if oracVT.EmergencyFrac >= oracT.EmergencyFrac {
		t.Errorf("OracVT emergencies %v not below OracT %v", oracVT.EmergencyFrac, oracT.EmergencyFrac)
	}
	if oracT.EmergencyFrac == 0 {
		t.Error("barnes under OracT must show voltage emergencies (Table 2)")
	}
	if allon.EmergencyFrac > oracT.EmergencyFrac {
		t.Error("all-on emergencies exceed OracT's")
	}
}

func TestGatingSustainsPeakEfficiency(t *testing.T) {
	allon := run(t, core.AllOn, "raytrace", nil)
	oracT := run(t, core.OracT, "raytrace", nil)
	peak := oracT.AvgEta
	if peak < 0.885 || peak > 0.901 {
		t.Errorf("OracT average efficiency %v not near the 0.90 peak", peak)
	}
	if allon.AvgEta >= oracT.AvgEta {
		t.Errorf("all-on efficiency %v not below gated %v at light load", allon.AvgEta, oracT.AvgEta)
	}
	// Fig. 7: gating saves substantial conversion loss on a light workload.
	saving := 1 - oracT.AvgPlossW/allon.AvgPlossW
	if saving < 0.30 {
		t.Errorf("raytrace gating saving %v, expected >30%% (paper: 49.8%%)", saving)
	}
}

func TestOffChipResult(t *testing.T) {
	res := run(t, core.OffChip, "fft", nil)
	if res.NoiseModeled {
		t.Error("off-chip run claims modeled noise")
	}
	if res.AvgPlossW != 0 || res.AvgEta != 0 {
		t.Errorf("off-chip run has conversion loss %v / eta %v", res.AvgPlossW, res.AvgEta)
	}
	for i, f := range res.VROnFrac {
		if f != 0 {
			t.Fatalf("off-chip run turned regulator %d on", i)
		}
	}
}

func TestFig13ActivityPattern(t *testing.T) {
	// Fig. 13: OracT keeps memory-side regulators on more than logic-side;
	// OracV does the opposite.
	check := func(res *Result, wantMemHigher bool) {
		t.Helper()
		p, _ := workload.ByName("lu_ncb")
		cfg := DefaultConfig(core.OracT, p)
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		chip := r.Chip()
		var logicSum, memSum float64
		var logicN, memN int
		for _, domID := range chip.CoreDomains() {
			logic, memory, err := chip.LogicSideRegulators(domID)
			if err != nil {
				t.Fatal(err)
			}
			for _, rid := range logic {
				logicSum += res.VROnFrac[rid]
				logicN++
			}
			for _, rid := range memory {
				memSum += res.VROnFrac[rid]
				memN++
			}
		}
		logicAvg := logicSum / float64(logicN)
		memAvg := memSum / float64(memN)
		if wantMemHigher && memAvg <= logicAvg {
			t.Errorf("memory-side activity %v not above logic-side %v", memAvg, logicAvg)
		}
		if !wantMemHigher && memAvg >= logicAvg {
			t.Errorf("logic-side activity %v not above memory-side %v", logicAvg, memAvg)
		}
	}
	check(run(t, core.OracT, "lu_ncb", nil), true)
	check(run(t, core.OracV, "lu_ncb", nil), false)
}

func TestFig6Trace(t *testing.T) {
	res := run(t, core.OracT, "lu_ncb", func(c *Config) { c.TraceEpochs = true })
	if len(res.Trace) == 0 {
		t.Fatal("no epoch trace collected")
	}
	// Active regulator count must track total power demand (Fig. 6):
	// positive correlation, and the count must actually vary.
	var mp, mc float64
	for _, e := range res.Trace {
		mp += e.TotalPowerW
		mc += float64(e.ActiveVRs)
	}
	mp /= float64(len(res.Trace))
	mc /= float64(len(res.Trace))
	var cov, vp, vc float64
	minC, maxC := res.Trace[0].ActiveVRs, res.Trace[0].ActiveVRs
	for _, e := range res.Trace {
		dp := e.TotalPowerW - mp
		dc := float64(e.ActiveVRs) - mc
		cov += dp * dc
		vp += dp * dp
		vc += dc * dc
		if e.ActiveVRs < minC {
			minC = e.ActiveVRs
		}
		if e.ActiveVRs > maxC {
			maxC = e.ActiveVRs
		}
	}
	if maxC == minC {
		t.Fatal("active regulator count never changed")
	}
	corr := cov / math.Sqrt(vp*vc)
	if corr < 0.6 {
		t.Errorf("power/active-count correlation = %v, want > 0.6", corr)
	}
	if maxC > 96 || minC < 16 {
		t.Errorf("active count range [%d, %d] outside [16, 96]", minC, maxC)
	}
}

func TestFig8VRTrace(t *testing.T) {
	res := run(t, core.Naive, "lu_ncb", func(c *Config) { c.TrackVR = 4 })
	if len(res.VRTrace) == 0 {
		t.Fatal("no VR trace collected")
	}
	onSeen, offSeen := false, false
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range res.VRTrace {
		if s.On {
			onSeen = true
		} else {
			offSeen = true
		}
		lo = math.Min(lo, s.TempC)
		hi = math.Max(hi, s.TempC)
	}
	if !onSeen || !offSeen {
		t.Error("tracked regulator never toggled under Naive gating")
	}
	// Fig. 8 shows the regulator temperature changing by >5°C through
	// gating cycles; require at least a visible swing.
	if hi-lo < 2 {
		t.Errorf("tracked VR temperature swing %v°C too small", hi-lo)
	}
}

func TestHeatMapCapture(t *testing.T) {
	res := run(t, core.AllOn, "cholesky", func(c *Config) { c.HeatMapRes = 42 })
	if res.HeatMap == nil {
		t.Fatal("no heat map captured")
	}
	if len(res.HeatMap) != 42 || len(res.HeatMap[0]) != 42 {
		t.Fatalf("heat map is %dx%d", len(res.HeatMap), len(res.HeatMap[0]))
	}
	var hi float64
	for _, row := range res.HeatMap {
		for _, v := range row {
			if v > hi {
				hi = v
			}
		}
	}
	if math.Abs(hi-res.MaxTempC) > 3 {
		t.Errorf("heat map peak %v far from run Tmax %v", hi, res.MaxTempC)
	}
}

func TestWorstNoiseSnapshotUsable(t *testing.T) {
	res := run(t, core.OracT, "fft", nil)
	ws := res.WorstNoise
	if ws == nil {
		t.Fatal("no worst-noise snapshot")
	}
	p, _ := workload.ByName("fft")
	cfg := DefaultConfig(core.OracT, p)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := pdn.NewNetwork(r.Chip(), cfg.PDN)
	if err != nil {
		t.Fatal(err)
	}
	win, err := grid.TransientWindow(ws.Domain, ws.BlockIndex, ws.BlockCurrent, ws.Active, ws.Bursts, 2000, 4.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(win) != 2000 {
		t.Fatalf("window has %d cycles", len(win))
	}
}

func TestPracticalThetaQuality(t *testing.T) {
	res := run(t, core.PracT, "lu_ncb", nil)
	// The paper calibrates Eqn. 2 to R² ≈ 0.99; the reproduction's
	// first-order regulator nodes are nearly linear, so the fit must be
	// strong.
	if res.ThetaMeanR2 < 0.85 {
		t.Errorf("theta fit R² = %v, want ≥ 0.85", res.ThetaMeanR2)
	}
}

func TestPracVTSuppressesEmergencies(t *testing.T) {
	pracT := run(t, core.PracT, "barnes", nil)
	pracVT := run(t, core.PracVT, "barnes", nil)
	if pracT.EmergencyFrac == 0 {
		t.Fatal("barnes under PracT shows no emergencies to suppress")
	}
	if pracVT.EmergencyFrac >= pracT.EmergencyFrac {
		t.Errorf("PracVT emergencies %v not below PracT %v", pracVT.EmergencyFrac, pracT.EmergencyFrac)
	}
	if pracVT.EmergencyOverrides == 0 {
		t.Error("PracVT never overrode a domain to all-on")
	}
	// The efficiency cost of the overrides is negligible (paper: <0.1%
	// average, 0.5% worst case).
	if pracT.AvgEta-pracVT.AvgEta > 0.01 {
		t.Errorf("PracVT efficiency %v degraded too much vs PracT %v", pracVT.AvgEta, pracT.AvgEta)
	}
}

// TestDecisionPeriodInsensitivity reproduces footnote 5: shortening the
// gating decision period changes the outcome by less than ~1%.
func TestDecisionPeriodInsensitivity(t *testing.T) {
	base := run(t, core.OracT, "lu_ncb", nil)
	fast := run(t, core.OracT, "lu_ncb", func(c *Config) {
		c.EpochMS = 0.5
		c.SubstepMS = 0.1
		c.WarmupEpochs = 50 // same warm-up wall-clock
	})
	if rel := math.Abs(base.MaxTempC-fast.MaxTempC) / base.MaxTempC; rel > 0.01 {
		t.Errorf("halving the decision period moved Tmax by %.2f%%", rel*100)
	}
}

func TestRunShorterThanWarmupFails(t *testing.T) {
	p, _ := workload.ByName("fft")
	cfg := DefaultConfig(core.AllOn, p)
	cfg.DurationMS = 10
	cfg.WarmupEpochs = 50
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "warm-up") {
		t.Errorf("New accepted a run shorter than its warm-up (err %v)", err)
	}
}
