// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per artefact, as indexed in DESIGN.md), plus ablations of
// the reproduction's own design choices and micro-benchmarks of the hot
// simulation paths. Artefact benchmarks use shortened runs (the full-length
// evaluation is `thermogater -experiment sweep -duration 3000`); reported custom metrics carry the
// headline quantity of each artefact.
package thermogater

import (
	"context"
	"sync"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/experiments"
	"thermogater/internal/floorplan"
	"thermogater/internal/pdn"
	"thermogater/internal/power"
	"thermogater/internal/sim"
	"thermogater/internal/thermal"
	"thermogater/internal/uarch"
	"thermogater/internal/vr"
	"thermogater/internal/workload"
)

// benchOptions keeps artefact regeneration affordable inside testing.B.
func benchOptions() experiments.Options {
	return experiments.Options{DurationMS: 150, Seed: 1}
}

var (
	sweepOnce sync.Once
	sweepVal  *experiments.Sweep
	sweepErr  error
)

// sharedSweep runs the 14×8 policy sweep once and shares it across the
// sweep-derived artefact benchmarks.
func sharedSweep(b *testing.B) *experiments.Sweep {
	b.Helper()
	sweepOnce.Do(func() {
		sweepVal, sweepErr = experiments.RunSweep(experiments.SweepPolicies(), benchOptions())
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepVal
}

func BenchmarkFig1EfficiencySurvey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1EfficiencySurvey(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2MultiPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2MultiPhase(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Calibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5Calibration(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6ActiveRegulators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6ActiveRegulators(context.Background(), benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7PlossSaving(b *testing.B) {
	sw := sharedSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Fig7PlossSaving(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8NaiveProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8NaiveProfile(context.Background(), benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Tmax(b *testing.B) {
	sw := sharedSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Fig9Tmax(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Gradient(b *testing.B) {
	sw := sharedSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Fig10Gradient(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11VoltageNoise(b *testing.B) {
	sw := sharedSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Fig11VoltageNoise(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12HeatMaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12HeatMaps(context.Background(), benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13ActivityBins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13ActivityBins(context.Background(), benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14NoiseTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14NoiseTransient(context.Background(), benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15LDOvsFIVR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15LDOvsFIVR(context.Background(), benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Emergencies(b *testing.B) {
	sw := sharedSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Table2Emergencies(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadlinePracVT(b *testing.B) {
	sw := sharedSweep(b)
	b.ResetTimer()
	var h *experiments.Headline
	for i := 0; i < b.N; i++ {
		var err error
		h, err = sw.Headline(0.90)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.TmaxDeltaC, "TmaxΔ°C")
	b.ReportMetric(h.GradientDeltaC, "gradΔ°C")
	b.ReportMetric(h.NoiseDeltaPct, "noiseΔ%")
}

// --- Ablations of the reproduction's design choices (DESIGN.md §5) ---

// BenchmarkAblationThermalStep varies the thermal integrator's substep cap
// to show the compact RC network is step-size insensitive at the chosen
// default.
func BenchmarkAblationThermalStep(b *testing.B) {
	for _, stepS := range []float64{5e-5, 2e-4} {
		name := "step=50us"
		if stepS == 2e-4 {
			name = "step=200us"
		}
		b.Run(name, func(b *testing.B) {
			bench, _ := workload.ByName("lu_ncb")
			cfg := sim.DefaultConfig(core.OracT, bench)
			cfg.DurationMS = 120
			cfg.WarmupEpochs = 20
			cfg.Thermal.MaxEulerStepS = stepS
			b.ResetTimer()
			var tmax float64
			for i := 0; i < b.N; i++ {
				r, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				tmax = res.MaxTempC
			}
			b.ReportMetric(tmax, "Tmax°C")
		})
	}
}

// BenchmarkAblationPredictor ablates PracT's practical predictor parts:
// the three-point WMA demand forecaster against a last-value predictor
// (window=1), and the sensor-trend compensation against plain Eqn. 2
// (trend=0). Reported Tmax shows what each part buys.
func BenchmarkAblationPredictor(b *testing.B) {
	cases := []struct {
		name      string
		window    int
		trendGain float64
	}{
		{"window=1", 1, 0.45},
		{"window=3", 3, 0.45},
		{"trend=0", 3, 0},
	}
	for _, tc := range cases {
		window, trendGain, name := tc.window, tc.trendGain, tc.name
		b.Run(name, func(b *testing.B) {
			bench, _ := workload.ByName("lu_ncb")
			cfg := sim.DefaultConfig(core.PracT, bench)
			cfg.DurationMS = 150
			cfg.WarmupEpochs = 20
			cfg.ProfilingEpochs = 80
			cfg.Governor.WMAWindow = window
			cfg.Governor.TrendGain = trendGain
			b.ResetTimer()
			var tmax float64
			for i := 0; i < b.N; i++ {
				r, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				tmax = res.MaxTempC
			}
			b.ReportMetric(tmax, "Tmax°C")
		})
	}
}

// BenchmarkAblationSampling varies the VoltSpot-style transient window
// length, showing the 2K-cycle default captures the burst peak.
func BenchmarkAblationSampling(b *testing.B) {
	chip := floorplan.MustPOWER8()
	grid, err := pdn.NewNetwork(chip, pdn.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cur := make([]float64, len(chip.Blocks))
	for i, blk := range chip.Blocks {
		if blk.Kind == floorplan.Logic {
			cur[i] = 3
		} else {
			cur[i] = 1
		}
	}
	bursts := []pdn.Burst{{StartCycle: 300, Cycles: 500, Amp: 1.2}}
	for _, cycles := range []int{500, 2000} {
		name := "cycles=500"
		if cycles == 2000 {
			name = "cycles=2000"
		}
		b.Run(name, func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				win, err := grid.TransientWindow(0, 0, cur, grid.AllOnMask(0), bursts, cycles, 4.0, 1)
				if err != nil {
					b.Fatal(err)
				}
				peak = 0
				for _, v := range win {
					if v > peak {
						peak = v
					}
				}
			}
			b.ReportMetric(peak, "peak%")
		})
	}
}

// BenchmarkAblationPDNModel compares the fast path-resistance model the
// control loop uses against the full nodal mesh solve: same ordering, three
// orders of magnitude apart in cost — which is why the loop uses the fast
// model and the mesh validates it.
func BenchmarkAblationPDNModel(b *testing.B) {
	chip := floorplan.MustPOWER8()
	cur := make([]float64, len(chip.Blocks))
	for i, blk := range chip.Blocks {
		if blk.Kind == floorplan.Logic {
			cur[i] = 3
		} else {
			cur[i] = 1
		}
	}
	b.Run("path-model", func(b *testing.B) {
		grid, err := pdn.NewNetwork(chip, pdn.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		mask := grid.AllOnMask(0)
		var worst float64
		for i := 0; i < b.N; i++ {
			dn, err := grid.SteadyNoise(0, cur, mask)
			if err != nil {
				b.Fatal(err)
			}
			worst = dn.MaxPct
		}
		b.ReportMetric(worst, "max%")
	})
	b.Run("mesh-solve", func(b *testing.B) {
		mesh, err := pdn.NewMesh(chip, 0, pdn.DefaultMeshConfig())
		if err != nil {
			b.Fatal(err)
		}
		mask := make([]bool, 9)
		for i := range mask {
			mask[i] = true
		}
		var worst float64
		for i := 0; i < b.N; i++ {
			sol, err := mesh.Solve(cur, mask)
			if err != nil {
				b.Fatal(err)
			}
			worst = sol.MaxPct
		}
		b.ReportMetric(worst, "max%")
	})
}

// BenchmarkAblationThermalModel compares the compact block-mode RC network
// against the fine-grid solver on the same power map.
func BenchmarkAblationThermalModel(b *testing.B) {
	chip := floorplan.MustPOWER8()
	bp := make([]float64, len(chip.Blocks))
	vp := make([]float64, len(chip.Regulators))
	for i, blk := range chip.Blocks {
		if blk.Kind == floorplan.Logic {
			bp[i] = 3
		} else {
			bp[i] = 1.2
		}
	}
	for i := range vp {
		vp[i] = 0.12
	}
	b.Run("compact", func(b *testing.B) {
		var tmax float64
		for i := 0; i < b.N; i++ {
			m, err := thermal.NewModel(chip, thermal.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := m.SetPower(bp, vp); err != nil {
				b.Fatal(err)
			}
			if _, err := m.SteadyState(1e-5, 0); err != nil {
				b.Fatal(err)
			}
			tmax, _, _ = m.Extremes()
		}
		b.ReportMetric(tmax, "Tmax°C")
	})
	b.Run("grid42", func(b *testing.B) {
		var tmax float64
		for i := 0; i < b.N; i++ {
			g, err := thermal.NewGridModel(chip, thermal.DefaultConfig(), 42, 42)
			if err != nil {
				b.Fatal(err)
			}
			if err := g.SetPower(bp, vp); err != nil {
				b.Fatal(err)
			}
			if _, err := g.SteadyState(1e-4, 0); err != nil {
				b.Fatal(err)
			}
			tmax, _ = g.MaxTemp()
		}
		b.ReportMetric(tmax, "Tmax°C")
	})
}

// BenchmarkAgingTracking measures the cost of the Section 7 wear model and
// reports the weakest-regulator lifetime under OracT.
func BenchmarkAgingTracking(b *testing.B) {
	bench, _ := workload.ByName("lu_ncb")
	cfg := sim.DefaultConfig(core.OracT, bench)
	cfg.DurationMS = 120
	cfg.WarmupEpochs = 20
	cfg.TrackAging = true
	var mttf float64
	for i := 0; i < b.N; i++ {
		r, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		mttf = res.MinMTTFYears
	}
	b.ReportMetric(mttf, "minMTTFyears")
}

// --- Micro-benchmarks of the hot simulation paths ---

func BenchmarkThermalStep(b *testing.B) {
	m, err := thermal.NewModel(floorplan.MustPOWER8(), thermal.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	bp := make([]float64, len(m.Chip().Blocks))
	vp := make([]float64, len(m.Chip().Regulators))
	for i := range bp {
		bp[i] = 1
	}
	if err := m.SetPower(bp, vp); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(1e-4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPDNSteadyNoise(b *testing.B) {
	chip := floorplan.MustPOWER8()
	grid, err := pdn.NewNetwork(chip, pdn.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	cur := make([]float64, len(chip.Blocks))
	for i := range cur {
		cur[i] = power.WattsToAmps(2)
	}
	mask := grid.AllOnMask(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grid.SteadyNoise(0, cur, mask); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUarchStep(b *testing.B) {
	bench, _ := workload.ByName("barnes")
	s, err := uarch.New(floorplan.MustPOWER8(), bench, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Step(uarch.DefaultStepMS); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVRNetworkNOn(b *testing.B) {
	nw, err := vr.NewNetwork(vr.FIVR(), 9)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nw.NOn(float64(i%14) + 0.5)
	}
}

func BenchmarkSimEpoch(b *testing.B) {
	// Cost of one simulated millisecond end to end, amortised over a run.
	bench, _ := workload.ByName("fft")
	cfg := sim.DefaultConfig(core.OracT, bench)
	cfg.DurationMS = 100
	cfg.WarmupEpochs = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
