package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/pdn"
	"thermogater/internal/sim"
	"thermogater/internal/workload"
)

// testOptions keeps experiment runs short.
func testOptions() Options {
	return Options{DurationMS: 150, Seed: 1}
}

func TestFig1EfficiencySurvey(t *testing.T) {
	f, err := Fig1EfficiencySurvey()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 8 {
		t.Fatalf("Fig. 1 has %d series, want 8", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 25 {
			t.Errorf("%s: %d points", s.Label, len(s.X))
		}
		// Every curve rises then falls around its peak: max not at either end.
		peakAt, peak := 0, 0.0
		for i, y := range s.Y {
			if y > peak {
				peak, peakAt = y, i
			}
			if y < 0 || y > 100 {
				t.Errorf("%s: eta %v out of range", s.Label, y)
			}
		}
		if peakAt == 0 || peakAt == len(s.Y)-1 {
			t.Errorf("%s: peak at endpoint %d", s.Label, peakAt)
		}
		if peak < 75 || peak > 95 {
			t.Errorf("%s: peak eta %v outside the survey's 80-92%% band", s.Label, peak)
		}
	}
}

func TestFig2MultiPhase(t *testing.T) {
	f, err := Fig2MultiPhase()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 6 { // 5 phase counts + effective
		t.Fatalf("Fig. 2 has %d series, want 6", len(f.Series))
	}
	eff := f.Series[len(f.Series)-1]
	if eff.Label != "effective" {
		t.Fatalf("last series is %q", eff.Label)
	}
	// The effective curve dominates each fixed-phase-count curve.
	for _, s := range f.Series[:len(f.Series)-1] {
		for i := range s.Y {
			if s.Y[i] > eff.Y[i]+1e-9 {
				t.Fatalf("%s exceeds the effective curve at %vA", s.Label, s.X[i])
			}
		}
	}
	// And stays near the 90% peak over most of the range.
	for i, y := range eff.Y {
		if eff.X[i] > 1.0 && y < 89 {
			t.Errorf("effective eta %v%% at %vA, want ≥89%%", y, eff.X[i])
		}
	}
}

func TestFig5Calibration(t *testing.T) {
	f, err := Fig5Calibration()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 7 { // {2,3,4,6,8,9} + effective
		t.Fatalf("Fig. 5 has %d series, want 7", len(f.Series))
	}
	// Each fixed-count curve peaks at count × 1.5A.
	wantPeaks := []float64{3, 4.5, 6, 9, 12, 13.5}
	for k, s := range f.Series[:6] {
		peakAt, peak := 0.0, 0.0
		for i, y := range s.Y {
			if y > peak {
				peak, peakAt = y, s.X[i]
			}
		}
		if math.Abs(peakAt-wantPeaks[k]) > 0.3 {
			t.Errorf("%s peaks at %vA, want ≈%vA", s.Label, peakAt, wantPeaks[k])
		}
	}
}

func TestFig6ActiveRegulators(t *testing.T) {
	f, err := Fig6ActiveRegulators(context.Background(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("Fig. 6 has %d series", len(f.Series))
	}
	power, active := f.Series[0], f.Series[1]
	if len(power.X) == 0 || len(power.X) != len(active.X) {
		t.Fatalf("series lengths %d, %d", len(power.X), len(active.X))
	}
	for i := range active.Y {
		if active.Y[i] < 16 || active.Y[i] > 96 {
			t.Fatalf("active count %v outside [16, 96]", active.Y[i])
		}
	}
}

func TestFig8NaiveProfile(t *testing.T) {
	f, err := Fig8NaiveProfile(context.Background(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	temp, state := f.Series[0], f.Series[1]
	if len(temp.X) == 0 {
		t.Fatal("empty temperature trace")
	}
	toggles := 0
	for i := 1; i < len(state.Y); i++ {
		if state.Y[i] != state.Y[i-1] {
			toggles++
		}
	}
	if toggles < 2 {
		t.Errorf("regulator state toggled %d times; Fig. 8 needs visible gating", toggles)
	}
}

func TestFig12HeatMaps(t *testing.T) {
	frames, err := Fig12HeatMaps(context.Background(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("%d frames, want 4", len(frames))
	}
	byPolicy := map[string]HeatMapFrame{}
	for _, fr := range frames {
		byPolicy[fr.Policy] = fr
		if len(fr.Grid) != 84 {
			t.Errorf("%s grid has %d rows", fr.Policy, len(fr.Grid))
		}
	}
	// Fig. 12 ordering: off-chip < OracT < all-on < OracV at the peak.
	if !(byPolicy["off-chip"].MaxTempC < byPolicy["oracT"].MaxTempC) {
		t.Errorf("off-chip %v not below OracT %v", byPolicy["off-chip"].MaxTempC, byPolicy["oracT"].MaxTempC)
	}
	if !(byPolicy["oracT"].MaxTempC < byPolicy["all-on"].MaxTempC) {
		t.Errorf("OracT %v not below all-on %v", byPolicy["oracT"].MaxTempC, byPolicy["all-on"].MaxTempC)
	}
	if !(byPolicy["all-on"].MaxTempC < byPolicy["oracV"].MaxTempC) {
		t.Errorf("all-on %v not below OracV %v", byPolicy["all-on"].MaxTempC, byPolicy["oracV"].MaxTempC)
	}
}

func TestFig13ActivityBins(t *testing.T) {
	f, err := Fig13ActivityBins(context.Background(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("%d series, want 2", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.X) != 72 {
			t.Fatalf("%s has %d bars, want 72", s.Label, len(s.X))
		}
	}
	// OracT: memory bin (last 24) busier than logic bin; OracV: reverse.
	split := 48
	avg := func(ys []float64) float64 {
		var sum float64
		for _, y := range ys {
			sum += y
		}
		return sum / float64(len(ys))
	}
	oracT, oracV := f.Series[0], f.Series[1]
	if !(avg(oracT.Y[split:]) > avg(oracT.Y[:split])) {
		t.Error("OracT logic bin busier than memory bin")
	}
	if !(avg(oracV.Y[:split]) > avg(oracV.Y[split:])) {
		t.Error("OracV memory bin busier than logic bin")
	}
}

func TestFig14NoiseTransient(t *testing.T) {
	f, err := Fig14NoiseTransient(context.Background(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("%d series, want 2", len(f.Series))
	}
	maxOfSeries := func(s []float64) float64 {
		m := s[0]
		for _, v := range s[1:] {
			if v > m {
				m = v
			}
		}
		return m
	}
	oracT := maxOfSeries(f.Series[0].Y)
	oracV := maxOfSeries(f.Series[1].Y)
	// Fig. 14: OracV's transient peaks well below OracT's at the critical
	// sample.
	if oracV >= oracT {
		t.Errorf("OracV transient peak %v not below OracT %v", oracV, oracT)
	}
}

func TestFig15LDOvsFIVR(t *testing.T) {
	opts := testOptions()
	f, err := Fig15LDOvsFIVR(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ldo, fivr := f.Series[0], f.Series[1]
	if len(ldo.Y) != 15 || len(fivr.Y) != 15 { // 14 benchmarks + MAX
		t.Fatalf("series lengths %d, %d; want 15", len(ldo.Y), len(fivr.Y))
	}
	better := 0
	for i := range ldo.Y {
		if ldo.Y[i] <= fivr.Y[i]+1e-9 {
			better++
		}
	}
	if better < 13 {
		t.Errorf("LDO at or below FIVR on only %d/15 points", better)
	}
	// The advantage is small (paper: ≈0.7%% average, 1.1%% max).
	if gap := fivr.Y[14] - ldo.Y[14]; gap < 0 || gap > 3 {
		t.Errorf("overall max gap %v%% implausible", gap)
	}
}

func TestSweepDerivedArtifacts(t *testing.T) {
	opts := testOptions()
	sw, err := RunSweep(SweepPolicies(), opts)
	if err != nil {
		t.Fatal(err)
	}

	fig7, err := sw.Fig7PlossSaving()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig7.Rows) != 15 { // 14 benchmarks + AVG
		t.Fatalf("Fig. 7 has %d rows", len(fig7.Rows))
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	byName := map[string]float64{}
	for _, row := range fig7.Rows {
		byName[row[0]] = parse(row[1])
	}
	// The Fig. 7 extremes and average band.
	if !(byName["rayt"] > byName["chol"]) {
		t.Errorf("raytrace saving %v not above cholesky %v", byName["rayt"], byName["chol"])
	}
	if byName["chol"] > 20 {
		t.Errorf("cholesky saving %v%%, paper reports ≈10%%", byName["chol"])
	}
	if byName["rayt"] < 35 {
		t.Errorf("raytrace saving %v%%, paper reports ≈50%%", byName["rayt"])
	}
	if avg := byName["AVG"]; avg < 15 || avg > 40 {
		t.Errorf("average saving %v%%, paper reports ≈26.5%%", avg)
	}

	fig9, err := sw.Fig9Tmax()
	if err != nil {
		t.Fatal(err)
	}
	fig10, err := sw.Fig10Gradient()
	if err != nil {
		t.Fatal(err)
	}
	fig11, err := sw.Fig11VoltageNoise()
	if err != nil {
		t.Fatal(err)
	}
	tab2, err := sw.Table2Emergencies()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range []*struct {
		name string
		rows int
		got  int
	}{
		{"Fig9", 15, len(fig9.Rows)},
		{"Fig10", 15, len(fig10.Rows)},
		{"Fig11", 15, len(fig11.Rows)},
		{"Table2", 15, len(tab2.Rows)},
	} {
		if tab.got != tab.rows {
			t.Errorf("%s has %d rows, want %d", tab.name, tab.got, tab.rows)
		}
	}

	// Fig. 9 AVG ordering: oracV hottest gated, oracT below all-on.
	colOf := func(tbl [][]string, cols []string, name string) int {
		for i, c := range cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("no column %q", name)
		return -1
	}
	avgRow := fig9.Rows[len(fig9.Rows)-1]
	oracTC := parse(avgRow[colOf(fig9.Rows, fig9.Columns, "oracT")])
	oracVC := parse(avgRow[colOf(fig9.Rows, fig9.Columns, "oracV")])
	allonC := parse(avgRow[colOf(fig9.Rows, fig9.Columns, "all-on")])
	offC := parse(avgRow[colOf(fig9.Rows, fig9.Columns, "off-chip")])
	if !(offC < oracTC && oracTC < allonC && allonC < oracVC) {
		t.Errorf("Fig. 9 AVG ordering violated: off %v oracT %v all-on %v oracV %v",
			offC, oracTC, allonC, oracVC)
	}

	// Table 2: barnes highest, lu benchmarks zero.
	t2 := map[string]float64{}
	for _, row := range tab2.Rows {
		t2[row[0]] = parse(row[1])
	}
	if t2["barnes"] <= t2["chol"] {
		t.Errorf("barnes emergencies %v not above cholesky %v", t2["barnes"], t2["chol"])
	}
	if t2["lu_cb"] != 0 || t2["lu_ncb"] != 0 || t2["water_n"] != 0 {
		t.Errorf("lu_cb/lu_ncb/water_n emergencies non-zero: %v %v %v",
			t2["lu_cb"], t2["lu_ncb"], t2["water_n"])
	}

	// Headline: PracVT within a degree of OracT thermally, noise near
	// all-on, efficiency near the peak.
	h, err := sw.Headline(0.90)
	if err != nil {
		t.Fatal(err)
	}
	if h.TmaxDeltaC < -0.5 || h.TmaxDeltaC > 2.0 {
		t.Errorf("headline Tmax delta %v°C (paper 0.6)", h.TmaxDeltaC)
	}
	if h.GradientDeltaC < -0.5 || h.GradientDeltaC > 2.0 {
		t.Errorf("headline gradient delta %v°C (paper 0.3)", h.GradientDeltaC)
	}
	if h.EtaShortfall > 0.012 {
		t.Errorf("headline eta shortfall %v (paper <0.01)", h.EtaShortfall)
	}
	var buf bytes.Buffer
	if err := h.Table().Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "PracVT") {
		t.Error("headline table missing title")
	}
}

func TestRunSweepValidation(t *testing.T) {
	if _, err := RunSweep(nil, testOptions()); err == nil {
		t.Error("empty policy sweep accepted")
	}
}

// TestRunSweepContextCanceled: once the context is canceled no further
// cell starts, the canceled cells are neither results nor failures, and
// the error wraps the cancellation.
func TestRunSweepContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := testOptions()
	opts.Parallel = 1
	var cells int
	opts.Mutate = func(core.PolicyKind, workload.Profile, *sim.Config) {
		// One worker, so the calls are serial.
		if cells++; cells == 3 {
			cancel()
		}
	}
	sw, err := RunSweepContext(ctx, []core.PolicyKind{core.AllOn}, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v, want a context.Canceled error", err)
	}
	if len(sw.Failures) != 0 {
		t.Errorf("canceled cells listed as failures: %v", sw.Failures)
	}
	var done int
	for _, m := range sw.Results {
		done += len(m)
	}
	if done != 2 {
		t.Errorf("%d cells completed, want the 2 that ran before the cancel", done)
	}
	if cells > 4 {
		t.Errorf("%d cells started after a cancel at the third", cells)
	}
}

func TestSweepGetErrors(t *testing.T) {
	opts := testOptions()
	real, err := RunSweep([]core.PolicyKind{core.AllOn}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := real.Get("nope", core.AllOn); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := real.Get("fft", core.OracT); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := real.Get("fft", core.AllOn); err != nil {
		t.Errorf("valid cell rejected: %v", err)
	}
}

func TestLDOConfigSwitchesDesign(t *testing.T) {
	opts := testOptions()
	p, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	l := ldoConfig(opts.simConfig(core.AllOn, p))
	if l.Design.Name != "POWER8-LDO" {
		t.Errorf("design = %s", l.Design.Name)
	}
	if l.PDN.ResponseTimeNS >= pdn.DefaultConfig().ResponseTimeNS {
		t.Error("LDO PDN not faster than default")
	}
}

func TestAgingComparison(t *testing.T) {
	tab, err := AgingComparison(context.Background(), "lu_ncb", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	vals := map[string]float64{}
	for _, row := range tab.Rows {
		if row[1] == "inf" {
			continue
		}
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[1], err)
		}
		vals[row[0]] = v
	}
	// OracV's pinned logic regulators die first (Section 7).
	if !(vals["oracV"] < vals["all-on"]) {
		t.Errorf("OracV MTTF %v not below all-on %v", vals["oracV"], vals["all-on"])
	}
	if !(vals["oracT"] > vals["oracV"]) {
		t.Errorf("OracT MTTF %v not above OracV %v", vals["oracT"], vals["oracV"])
	}
}

func TestDVFSComparison(t *testing.T) {
	tab, err := DVFSComparison(context.Background(), "raytrace", testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	parseRow := func(name string) (float64, float64) {
		for _, row := range tab.Rows {
			if row[0] == name {
				a, err1 := strconv.ParseFloat(row[1], 64)
				b, err2 := strconv.ParseFloat(row[2], 64)
				if err1 != nil || err2 != nil {
					t.Fatalf("parse row %q: %v %v", name, err1, err2)
				}
				return a, b
			}
		}
		t.Fatalf("no row %q", name)
		return 0, 0
	}
	basePower, dvfsPower := parseRow("avg chip power (W)")
	if dvfsPower >= basePower {
		t.Errorf("DVFS power %v not below nominal %v", dvfsPower, basePower)
	}
	if _, err := AgingComparison(context.Background(), "doom", testOptions()); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := DVFSComparison(context.Background(), "doom", testOptions()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
