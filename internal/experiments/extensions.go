package experiments

import (
	"context"
	"fmt"
	"math"

	"thermogater/internal/core"
	"thermogater/internal/dvfs"
	"thermogater/internal/report"
	"thermogater/internal/workload"
)

// AgingComparison quantifies the paper's Section 7 aging discussion: for
// one benchmark, it runs the main gating policies with the wear tracker
// enabled and tabulates the weakest regulator's extrapolated lifetime and
// the wear-balance ratio per policy. The expected story: all-on spreads
// wear thinly; OracT parks its busy regulators in cool regions; OracV
// pins hot logic-side regulators and ages them fastest.
func AgingComparison(ctx context.Context, benchmark string, opts Options) (*report.Table, error) {
	bench, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "Aging",
		Title:   fmt.Sprintf("Regulator wear-out per policy (%s, Black's equation)", bench.Name),
		Columns: []string{"policy", "min MTTF (years)", "wear imbalance (max/mean)"},
	}
	for _, p := range []core.PolicyKind{core.AllOn, core.Naive, core.OracT, core.OracV, core.PracVT} {
		cfg := opts.simConfig(p, bench)
		cfg.TrackAging = true
		res, err := runOne(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", p, err)
		}
		mttf := "inf"
		if !math.IsInf(res.MinMTTFYears, 1) {
			mttf = fmt.Sprintf("%.1f", res.MinMTTFYears)
		}
		t.AddRow(p.String(), mttf, fmt.Sprintf("%.2f", res.AgingImbalance))
	}
	return t, nil
}

// DVFSComparison runs one benchmark with and without the per-core DVFS
// layer under the practical governor and tabulates the power/performance/
// efficiency trade — the fine-grain voltage control that integrated
// regulation exists to enable (Section 1).
func DVFSComparison(ctx context.Context, benchmark string, opts Options) (*report.Table, error) {
	bench, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "DVFS",
		Title:   fmt.Sprintf("Per-core DVFS under ThermoGater (%s, PracVT)", bench.Name),
		Columns: []string{"metric", "nominal", "with DVFS"},
	}
	base, err := runOne(ctx, opts.simConfig(core.PracVT, bench))
	if err != nil {
		return nil, err
	}
	cfg := opts.simConfig(core.PracVT, bench)
	d := dvfs.DefaultConfig()
	cfg.DVFS = &d
	scaled, err := runOne(ctx, cfg)
	if err != nil {
		return nil, err
	}
	t.AddRow("avg chip power (W)",
		fmt.Sprintf("%.1f", base.AvgChipPowerW), fmt.Sprintf("%.1f", scaled.AvgChipPowerW))
	t.AddRow("avg conversion loss (W)",
		fmt.Sprintf("%.2f", base.AvgPlossW), fmt.Sprintf("%.2f", scaled.AvgPlossW))
	t.AddRow("avg conversion efficiency",
		fmt.Sprintf("%.4f", base.AvgEta), fmt.Sprintf("%.4f", scaled.AvgEta))
	t.AddRow("max temperature (°C)",
		fmt.Sprintf("%.2f", base.MaxTempC), fmt.Sprintf("%.2f", scaled.MaxTempC))
	t.AddRow("avg performance scale",
		"1.000", fmt.Sprintf("%.3f", scaled.DVFSAvgPerf))
	return t, nil
}
