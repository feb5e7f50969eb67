package main

import (
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one reported metric. The two tables below are the
// program's copy of BENCHMARK.json's "end_to_end" and "per_layer" lists;
// TestMetricTablesMatchBenchmarkJSON keeps them identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the service or the sweep sees, measured with
// tracing off. On sweep-grid a "job" is one (policy, benchmark) cell.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"sim_ms_per_s", "ms/s", "higher", 0.25},
	{"retained_kb_per_job", "KB", "lower", 0.1},
}

// perLayer is what the traced run reports. A layer the workload never
// enters reads 0 (the sweep has no serve or telemetry layer; the service
// runs no sweep).
var perLayer = []metricDef{
	{Name: "serve.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.result_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.stream_kb_per_job", Unit: "KB", Better: "lower"},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.dedup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.retry_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.new_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.prelude_ms.prac", Unit: "ms", Better: "lower"},
	{Name: "sim.prelude_ms.other", Unit: "ms", Better: "lower"},
	{Name: "sim.epoch_us", Unit: "us", Better: "lower"},
	{Name: "sim.phase_us.uarch", Unit: "us", Better: "lower"},
	{Name: "sim.phase_us.power", Unit: "us", Better: "lower"},
	{Name: "sim.phase_us.governor", Unit: "us", Better: "lower"},
	{Name: "sim.phase_us.vr", Unit: "us", Better: "lower"},
	{Name: "sim.phase_us.thermal", Unit: "us", Better: "lower"},
	{Name: "sim.phase_us.pdn", Unit: "us", Better: "lower"},
	{Name: "telemetry.emit_us_per_epoch", Unit: "us", Better: "lower"},
	{Name: "pdn.mask_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pdn.solves_per_epoch", Unit: "count", Better: "lower"},
	{Name: "thermal.substeps_per_epoch", Unit: "count", Better: "lower"},
	{Name: "sweep.cell_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.cell_max_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.tail_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line the program prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport keeps exactly the metrics of defs, each with its unit, and
// fails if one of them was not measured or is not a finite number.
func buildReport(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) (report, error) {
	rep := report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return report{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return report{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return rep, nil
}

func (r report) line() (string, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return "", fmt.Errorf("encoding result: %w", err)
	}
	return string(b), nil
}
