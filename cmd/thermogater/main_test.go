package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"thermogater/internal/experiments"
	"thermogater/internal/invariant"
)

func TestListAll(t *testing.T) {
	var buf bytes.Buffer
	listAll(&buf)
	out := buf.String()
	for _, want := range []string{"fig9", "table2", "aging", "dvfs", "pracVT", "cholesky"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q", want)
		}
	}
}

// single builds the options for a plain runSingle call.
func single(policy, bench, profilePath string, duration int) options {
	return options{runPolicy: policy, bench: bench, profile: profilePath, duration: duration, seed: 1}
}

func TestRunSingle(t *testing.T) {
	var buf bytes.Buffer
	if err := runSingle(&buf, nil, single("oracT", "rayt", "", 60)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"oracT on raytrace", "max temperature", "avg conversion efficiency"} {
		if !strings.Contains(out, want) {
			t.Errorf("run summary missing %q:\n%s", want, out)
		}
	}
	if err := runSingle(&buf, nil, single("nope", "fft", "", 60)); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := runSingle(&buf, nil, single("oracT", "nope", "", 60)); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := runSingle(&buf, nil, single("oracT", "fft", "/does/not/exist.json", 60)); err == nil {
		t.Error("missing profile file accepted")
	}
}

func TestRunSingleOffChipOmitsNoise(t *testing.T) {
	var buf bytes.Buffer
	if err := runSingle(&buf, nil, single("off-chip", "rayt", "", 60)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "voltage noise") {
		t.Error("off-chip summary reports voltage noise")
	}
}

func TestRunSingleFaultSchedule(t *testing.T) {
	var buf bytes.Buffer
	o := single("pracT", "fft", "", 60)
	o.faults = "vr-stuck-off@25:unit=5;sensor-dropout@25+20:unit=5"
	if err := runSingle(&buf, nil, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault events fired", "sensor fallbacks"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("faulted run summary missing %q:\n%s", want, buf.String())
		}
	}
	o.faults = "not-a-fault@0"
	if err := runSingle(&buf, nil, o); err == nil {
		t.Error("malformed fault schedule accepted")
	}
}

func TestRunSingleCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")

	var buf bytes.Buffer
	o := single("oracT", "fft", "", 60)
	o.checkpoint = path
	o.ckptEvery = 20
	if err := runSingle(&buf, nil, o); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}

	// Resuming from the last snapshot replays only the tail and must
	// reach the same summary as the uninterrupted run.
	var resumed bytes.Buffer
	ro := single("oracT", "fft", "", 60)
	ro.resume = path
	if err := runSingle(&resumed, nil, ro); err != nil {
		t.Fatal(err)
	}
	if buf.String() != resumed.String() {
		t.Errorf("resumed summary differs:\n--- full ---\n%s--- resumed ---\n%s", buf.String(), resumed.String())
	}

	ro.resume = filepath.Join(dir, "missing.ckpt")
	if err := runSingle(&resumed, nil, ro); err == nil {
		t.Error("missing checkpoint file accepted")
	}

	// A checkpoint from a different run identity must be rejected.
	wrong := single("pracT", "fft", "", 60)
	wrong.resume = path
	if err := runSingle(&resumed, nil, wrong); err == nil {
		t.Error("checkpoint restored into a different policy")
	}
}

func TestRunExperimentStatic(t *testing.T) {
	var buf bytes.Buffer
	opts := experiments.Options{DurationMS: 60, Seed: 1}
	for _, id := range []string{"fig1", "fig2", "fig5"} {
		if err := runExperiment(&buf, id, opts, nil); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	if err := runExperiment(&buf, "fig99", opts, nil); err == nil {
		t.Error("unknown experiment accepted")
	}
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Error("output missing Fig. 2 header")
	}
}

func TestSweepSetCoversSweepExperiments(t *testing.T) {
	for _, id := range []string{"fig7", "fig9", "fig10", "fig11", "table2", "headline"} {
		if !sweepSet[id] {
			t.Errorf("%s not marked as sweep-derived", id)
		}
	}
	if sweepSet["fig1"] {
		t.Error("fig1 wrongly marked sweep-derived")
	}
}

func TestRunExperimentsNonSweepPath(t *testing.T) {
	var buf bytes.Buffer
	opts := experiments.Options{DurationMS: 60, Seed: 1}
	if err := runExperiments(&buf, "fig5", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Error("output missing Fig. 5")
	}
	if strings.Contains(buf.String(), "running full policy sweep") {
		t.Error("static experiment triggered the sweep")
	}
	if err := runExperiments(&buf, "fig99", opts); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExecuteMetricsJSONLStream(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "m.jsonl")
	csvPath := filepath.Join(dir, "m.csv")
	var buf bytes.Buffer
	err := execute(&buf, options{
		runPolicy:  "oracT",
		bench:      "fft",
		duration:   60,
		seed:       1,
		metrics:    true,
		metricsOut: jsonl,
		metricsCSV: csvPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "spans:") || !strings.Contains(buf.String(), "epoch") {
		t.Error("-metrics summary missing span tree")
	}

	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var n int
	var coverage []float64
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v", n+1, err)
		}
		if rec["record"] != "epoch" {
			t.Fatalf("line %d record = %v", n+1, rec["record"])
		}
		wall := rec["wall_ns"].(float64)
		var phases float64
		for _, k := range []string{"uarch_ns", "power_ns", "governor_ns", "vr_ns", "thermal_ns", "pdn_ns"} {
			v, ok := rec[k].(float64)
			if !ok {
				t.Fatalf("line %d missing %s", n+1, k)
			}
			phases += v
		}
		if phases > wall {
			t.Errorf("epoch %v: phase sum %.0fns exceeds wall %.0fns", rec["epoch"], phases, wall)
		}
		coverage = append(coverage, phases/wall)
		n++
	}
	if n != 60 {
		t.Fatalf("JSONL stream has %d epoch records, want 60", n)
	}
	// The acceptance bar: per-phase durations must cover ≥90% of the
	// measured epoch wall time. Assert it on the median epoch: a
	// sub-millisecond epoch the scheduler preempts between two spans is
	// an outlier the median ignores, while work left outside every span
	// shows up in every epoch. The sanitizer build (-tags tgsan) runs its
	// composite checks between spans, so the bar only applies to the
	// default build.
	slices.Sort(coverage)
	if med := coverage[len(coverage)/2]; !invariant.Enabled && med < 0.9 {
		t.Errorf("phases cover %.1f%% of the median epoch's wall time, want >= 90%%", 100*med)
	}

	csvBytes, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csvBytes)), "\n")
	if len(lines) != 61 { // header + 60 epochs
		t.Fatalf("CSV stream has %d lines, want 61", len(lines))
	}
	if !strings.HasPrefix(lines[0], "record,epoch,time_ms") {
		t.Errorf("CSV header wrong: %q", lines[0])
	}
}

func TestExecuteCPUAndHeapProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	heap := filepath.Join(dir, "heap.out")
	var buf bytes.Buffer
	err := execute(&buf, options{
		runPolicy: "oracT",
		bench:     "fft",
		duration:  60,
		seed:      1,
		cpuProf:   cpu,
		memProf:   heap,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, heap} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestExecuteExperimentEmitsRunRecords(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "runs.jsonl")
	var buf bytes.Buffer
	err := execute(&buf, options{
		experiment: "fig6",
		duration:   60,
		seed:       1,
		metrics:    true,
		metricsOut: jsonl,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	var runs int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec["record"] == "run" {
			runs++
			if rec["policy"] == "" || rec["wall_ns"].(float64) <= 0 {
				t.Errorf("run record incomplete: %v", rec)
			}
		}
	}
	if runs == 0 {
		t.Fatal("experiment emitted no run records")
	}
}
