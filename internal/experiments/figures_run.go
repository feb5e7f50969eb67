package experiments

import (
	"context"
	"errors"
	"fmt"

	"thermogater/internal/core"
	"thermogater/internal/floorplan"
	"thermogater/internal/pdn"
	"thermogater/internal/report"
	"thermogater/internal/uarch"
	"thermogater/internal/workload"
)

// Fig6ActiveRegulators regenerates Fig. 6: how the cumulative number of
// active regulators tracks the total power demand over time for an
// 8-threaded run of lu_ncb.
func Fig6ActiveRegulators(ctx context.Context, opts Options) (*report.Figure, error) {
	bench, err := workload.ByName("lu_ncb")
	if err != nil {
		return nil, err
	}
	cfg := opts.simConfig(core.OracT, bench)
	cfg.TraceEpochs = true
	res, err := runOne(ctx, cfg)
	if err != nil {
		return nil, err
	}
	f := &report.Figure{
		ID:     "Fig. 6",
		Title:  "Evolution of #active regulators with time (lu_ncb)",
		XLabel: "time (ms)",
		YLabel: "W / count",
	}
	power := report.Series{Label: "total power demand (W)"}
	active := report.Series{Label: "# active regulators"}
	for _, e := range res.Trace {
		power.X = append(power.X, e.TimeMS)
		power.Y = append(power.Y, e.TotalPowerW)
		active.X = append(active.X, e.TimeMS)
		active.Y = append(active.Y, float64(e.ActiveVRs))
	}
	f.Series = append(f.Series, power, active)
	return f, nil
}

// Fig8NaiveProfile regenerates Fig. 8: the temperature and on/off state of
// one representative regulator under the Naïve policy (lu_ncb).
func Fig8NaiveProfile(ctx context.Context, opts Options) (*report.Figure, error) {
	bench, err := workload.ByName("lu_ncb")
	if err != nil {
		return nil, err
	}
	cfg := opts.simConfig(core.Naive, bench)
	// Track a logic-side regulator of core 0: these are the ones Naïve
	// cycles on and off.
	cfg.TrackVR = 1
	res, err := runOne(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if len(res.VRTrace) == 0 {
		return nil, errors.New("experiments: no regulator trace collected")
	}
	f := &report.Figure{
		ID:     "Fig. 8",
		Title:  "Representative regulator thermal profile under Naïve (lu_ncb)",
		XLabel: "time (ms)",
		YLabel: "°C / state",
	}
	temp := report.Series{Label: "temperature (°C)"}
	state := report.Series{Label: "regulator state (1=on)"}
	for _, s := range res.VRTrace {
		temp.X = append(temp.X, s.TimeMS)
		temp.Y = append(temp.Y, s.TempC)
		state.X = append(state.X, s.TimeMS)
		on := 0.0
		if s.On {
			on = 1
		}
		state.Y = append(state.Y, on)
	}
	f.Series = append(f.Series, temp, state)
	return f, nil
}

// HeatMapFrame is one Fig. 12 panel.
type HeatMapFrame struct {
	Policy   string
	MaxTempC float64
	Grid     [][]float64
}

// Fig12HeatMaps regenerates Fig. 12: heat-map frames at the Tmax peak of
// cholesky under off-chip, all-on, OracT and OracV.
func Fig12HeatMaps(ctx context.Context, opts Options) ([]HeatMapFrame, error) {
	bench, err := workload.ByName("cholesky")
	if err != nil {
		return nil, err
	}
	var frames []HeatMapFrame
	for _, p := range []core.PolicyKind{core.OffChip, core.AllOn, core.OracT, core.OracV} {
		cfg := opts.simConfig(p, bench)
		cfg.HeatMapRes = 84
		res, err := runOne(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", p, err)
		}
		if res.HeatMap == nil {
			return nil, fmt.Errorf("%v: no heat map captured", p)
		}
		frames = append(frames, HeatMapFrame{
			Policy:   p.String(),
			MaxTempC: res.MaxTempC,
			Grid:     res.HeatMap,
		})
	}
	return frames, nil
}

// Fig13ActivityBins regenerates Fig. 13: per-regulator activity (fraction
// of execution time on) for the 72 core-domain regulators under OracT vs
// OracV, binned into logic-side and memory-side groups (lu_ncb).
func Fig13ActivityBins(ctx context.Context, opts Options) (*report.Figure, error) {
	bench, err := workload.ByName("lu_ncb")
	if err != nil {
		return nil, err
	}
	f := &report.Figure{
		ID:     "Fig. 13",
		Title:  "Regulator activity, logic-side then memory-side bins (lu_ncb)",
		XLabel: "regulator bin index",
		YLabel: "% of execution time on",
	}
	chip, err := floorplan.BuildPOWER8()
	if err != nil {
		return nil, err
	}
	for _, p := range []core.PolicyKind{core.OracT, core.OracV} {
		res, err := runOne(ctx, opts.simConfig(p, bench))
		if err != nil {
			return nil, fmt.Errorf("%v: %w", p, err)
		}
		// Order: all logic-side regulators (across core domains), then all
		// memory-side ones, as in the figure's two bins.
		var order []int
		for _, domID := range chip.CoreDomains() {
			logic, _, err := chip.LogicSideRegulators(domID)
			if err != nil {
				return nil, err
			}
			order = append(order, logic...)
		}
		split := len(order)
		for _, domID := range chip.CoreDomains() {
			_, memory, err := chip.LogicSideRegulators(domID)
			if err != nil {
				return nil, err
			}
			order = append(order, memory...)
		}
		s := report.Series{Label: fmt.Sprintf("%v (logic bin: 0..%d)", p, split-1)}
		for i, rid := range order {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, res.VROnFrac[rid]*100)
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// Fig14NoiseTransient regenerates Fig. 14: a cycle-level voltage noise
// sample around the worst-noise moment of fft under OracT vs OracV.
func Fig14NoiseTransient(ctx context.Context, opts Options) (*report.Figure, error) {
	bench, err := workload.ByName("fft")
	if err != nil {
		return nil, err
	}
	f := &report.Figure{
		ID:     "Fig. 14",
		Title:  "Voltage noise transient at the critical sample (fft)",
		XLabel: "time (cycles)",
		YLabel: "% voltage noise",
	}
	const cycles = 1000
	for _, p := range []core.PolicyKind{core.OracT, core.OracV} {
		cfg := opts.simConfig(p, bench)
		res, err := runOne(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", p, err)
		}
		ws := res.WorstNoise
		if ws == nil {
			return nil, fmt.Errorf("%v: no worst-noise snapshot", p)
		}
		chip, err := floorplan.BuildPOWER8()
		if err != nil {
			return nil, err
		}
		grid, err := pdn.NewNetwork(chip, cfg.PDN)
		if err != nil {
			return nil, err
		}
		// Re-anchor the snapshot bursts into the displayed window.
		bursts := make([]pdn.Burst, len(ws.Bursts))
		for i, b := range ws.Bursts {
			b.StartCycle = b.StartCycle % cycles
			bursts[i] = b
		}
		win, err := grid.TransientWindow(ws.Domain, ws.BlockIndex, ws.BlockCurrent,
			ws.Active, bursts, cycles, uarch.ClockGHz, opts.Seed)
		if err != nil {
			return nil, err
		}
		s := report.Series{Label: p.String()}
		for i, v := range win {
			s.X = append(s.X, float64(i))
			s.Y = append(s.Y, v)
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// Fig15LDOvsFIVR regenerates Fig. 15: the maximum voltage noise per
// benchmark under all-on for the LDO-based design vs the FIVR-based one,
// plus the overall maximum.
func Fig15LDOvsFIVR(ctx context.Context, opts Options) (*report.Figure, error) {
	f := &report.Figure{
		ID:     "Fig. 15",
		Title:  "Maximum voltage noise: LDO vs FIVR (all-on)",
		XLabel: "benchmark index (suite order, last = MAX)",
		YLabel: "% voltage noise",
	}
	fivr := report.Series{Label: "FIVR"}
	ldo := report.Series{Label: "LDO"}
	var maxF, maxL float64
	for i, bench := range workload.Suite() {
		cfgF := opts.simConfig(core.AllOn, bench)
		resF, err := runOne(ctx, cfgF)
		if err != nil {
			return nil, fmt.Errorf("fivr/%s: %w", bench.Name, err)
		}
		resL, err := runOne(ctx, ldoConfig(opts.simConfig(core.AllOn, bench)))
		if err != nil {
			return nil, fmt.Errorf("ldo/%s: %w", bench.Name, err)
		}
		fivr.X = append(fivr.X, float64(i))
		fivr.Y = append(fivr.Y, resF.SampledMaxNoisePct)
		ldo.X = append(ldo.X, float64(i))
		ldo.Y = append(ldo.Y, resL.SampledMaxNoisePct)
		if resF.SampledMaxNoisePct > maxF {
			maxF = resF.SampledMaxNoisePct
		}
		if resL.SampledMaxNoisePct > maxL {
			maxL = resL.SampledMaxNoisePct
		}
	}
	n := float64(len(fivr.X))
	fivr.X = append(fivr.X, n)
	fivr.Y = append(fivr.Y, maxF)
	ldo.X = append(ldo.X, n)
	ldo.Y = append(ldo.Y, maxL)
	f.Series = append(f.Series, ldo, fivr)
	f.Notes = append(f.Notes,
		"LDO design: same calibrated efficiency curves, 1ns response vs the buck's 10ns (Section 6.4)")
	return f, nil
}
