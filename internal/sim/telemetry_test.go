package sim

import (
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/telemetry"
	"thermogater/internal/workload"
)

// captureSink keeps copies of the emitted records in memory for
// assertions; the runner reuses one record per epoch.
type captureSink struct {
	recs []*telemetry.Record
}

func (c *captureSink) Emit(r *telemetry.Record) error { c.recs = append(c.recs, r.Clone()); return nil }
func (c *captureSink) Flush() error                   { return nil }

func telemetryTestConfig(t *testing.T, policy core.PolicyKind) Config {
	t.Helper()
	bench, err := workload.ByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(policy, bench)
	cfg.DurationMS = 60
	cfg.WarmupEpochs = 10
	return cfg
}

func TestRunnerEmitsSpanTreeWithAllPhases(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := &captureSink{}
	reg.AddSink(sink)
	cfg := telemetryTestConfig(t, core.OracVT)
	cfg.Telemetry = reg

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}

	sn := reg.Snapshot()
	var epoch *telemetry.SpanSnapshot
	for i := range sn.Spans {
		if sn.Spans[i].Name == "epoch" {
			epoch = &sn.Spans[i]
		}
	}
	if epoch == nil {
		t.Fatalf("no merged 'epoch' span root; spans: %+v", sn.Spans)
	}
	if epoch.Count != 60 {
		t.Errorf("epoch span count = %d, want 60", epoch.Count)
	}
	for _, want := range PhaseNames {
		found := false
		for _, c := range epoch.Children {
			if c.Name == want {
				found = true
				if c.TotalNS <= 0 {
					t.Errorf("phase %q has zero duration", want)
				}
			}
		}
		if !found {
			t.Errorf("epoch span tree missing phase %q", want)
		}
	}

	// Phase durations are disjoint, so their sum must stay within the epoch
	// wall time and — since the phases cover essentially the whole loop —
	// account for most of it.
	var phaseSum int64
	for _, c := range epoch.Children {
		phaseSum += c.TotalNS
	}
	if phaseSum > epoch.TotalNS {
		t.Errorf("phase sum %dns exceeds epoch wall %dns", phaseSum, epoch.TotalNS)
	}
	if float64(phaseSum) < 0.75*float64(epoch.TotalNS) {
		t.Errorf("phases cover only %.1f%% of epoch wall time",
			100*float64(phaseSum)/float64(epoch.TotalNS))
	}
}

func TestRunnerCountersAndEpochRecords(t *testing.T) {
	reg := telemetry.NewRegistry()
	sink := &captureSink{}
	reg.AddSink(sink)
	cfg := telemetryTestConfig(t, core.OracVT)
	cfg.Telemetry = reg

	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}

	if got := reg.Counter("sim_epochs_total").Value(); got != 60 {
		t.Errorf("sim_epochs_total = %v, want 60", got)
	}
	if got := reg.Counter("sim_substeps_total").Value(); got != 600 {
		t.Errorf("sim_substeps_total = %v, want 600", got)
	}
	if got := reg.Counter("thermal_euler_substeps_total").Value(); got <= 0 {
		t.Errorf("thermal_euler_substeps_total = %v, want > 0", got)
	}
	if got := reg.Counter("pdn_solves_total", telemetry.L("kind", "steady")).Value(); got <= 0 {
		t.Errorf("steady pdn solves = %v, want > 0", got)
	}

	if len(sink.recs) != 60 {
		t.Fatalf("emitted %d records, want 60 (one per epoch)", len(sink.recs))
	}
	var substeps float64
	for i, rec := range sink.recs {
		if rec.Name != "epoch" {
			t.Fatalf("record %d named %q", i, rec.Name)
		}
		if v, ok := rec.Get("epoch"); !ok || v.(int64) != int64(i) {
			t.Fatalf("record %d carries epoch %v", i, v)
		}
		for _, phase := range PhaseNames {
			if _, ok := rec.Get(phase + "_ns"); !ok {
				t.Fatalf("record %d missing %s_ns", i, phase)
			}
		}
		v, ok := rec.Get("thermal_substeps")
		if !ok {
			t.Fatalf("record %d missing thermal_substeps", i)
		}
		substeps += float64(v.(int64))
		// The die extremes describe the epoch-end field in warm-up epochs
		// too, where no measured substep has scanned it.
		tmax, _ := rec.Get("max_temp_c")
		grad, _ := rec.Get("gradient_c")
		if tm, g := tmax.(float64), grad.(float64); !(tm > cfg.Thermal.AmbientC && g > 0) {
			t.Fatalf("record %d (warm-up %v): max_temp_c %v, gradient_c %v", i, i < cfg.WarmupEpochs, tm, g)
		}
	}
	if got := reg.Counter("thermal_euler_substeps_total").Value(); got != substeps {
		t.Errorf("per-epoch substeps sum %v != counter %v", substeps, got)
	}

	// Run-level gauges are set once the result is final.
	if reg.Gauge("run_max_temp_c").Value() <= 0 {
		t.Error("run_max_temp_c gauge not set")
	}
}

// TestTelemetryDoesNotPerturbResults pins the zero-cost-when-disabled
// contract's stronger sibling: attaching telemetry must not change the
// simulation's physics or decisions at all.
func TestTelemetryDoesNotPerturbResults(t *testing.T) {
	base, err := New(telemetryTestConfig(t, core.PracVT))
	if err != nil {
		t.Fatal(err)
	}
	resOff, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}

	cfg := telemetryTestConfig(t, core.PracVT)
	cfg.Telemetry = telemetry.NewRegistry()
	instr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resOn, err := instr.Run()
	if err != nil {
		t.Fatal(err)
	}

	if resOff.MaxTempC != resOn.MaxTempC ||
		resOff.MaxGradientC != resOn.MaxGradientC ||
		resOff.MaxNoisePct != resOn.MaxNoisePct ||
		resOff.AvgPlossW != resOn.AvgPlossW ||
		resOff.EmergencyFrac != resOn.EmergencyFrac {
		t.Errorf("telemetry changed results: off=%+v on=%+v", resOff, resOn)
	}
}
