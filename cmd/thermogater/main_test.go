package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/experiments"
	"thermogater/internal/invariant"
	"thermogater/internal/sim"
	"thermogater/internal/workload"
)

func TestListAll(t *testing.T) {
	var buf bytes.Buffer
	listAll(&buf)
	out := buf.String()
	for _, want := range []string{"fig9", "table2", "aging", "dvfs", "sweep", "pracVT", "cholesky"} {
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
	if err := runSingle(context.Background(), &buf, nil, nil, single("oracT", "rayt", "", 60)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"oracT on raytrace", "max temperature", "avg conversion efficiency"} {
		if !strings.Contains(out, want) {
			t.Errorf("run summary missing %q:\n%s", want, out)
		}
	}
	if err := runSingle(context.Background(), &buf, nil, nil, single("nope", "fft", "", 60)); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := runSingle(context.Background(), &buf, nil, nil, single("oracT", "nope", "", 60)); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := runSingle(context.Background(), &buf, nil, nil, single("oracT", "fft", "/does/not/exist.json", 60)); err == nil {
		t.Error("missing profile file accepted")
	}
}

func TestRunSingleOffChipOmitsNoise(t *testing.T) {
	var buf bytes.Buffer
	if err := runSingle(context.Background(), &buf, nil, nil, single("off-chip", "rayt", "", 60)); err != nil {
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
	if err := execute(&buf, io.Discard, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault events fired", "sensor fallbacks"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("faulted run summary missing %q:\n%s", want, buf.String())
		}
	}
	o.faults = "not-a-fault@0"
	if err := execute(&buf, io.Discard, o); err == nil {
		t.Error("malformed fault schedule accepted")
	}
}

// TestExperimentFaultsReachCells: -faults arms the schedule in every run
// of an experiment, so a faulted experiment renders differently.
func TestExperimentFaultsReachCells(t *testing.T) {
	render := func(faults string) string {
		var buf bytes.Buffer
		if err := execute(&buf, io.Discard, options{experiment: "fig6", duration: 60, seed: 1, faults: faults}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if render("vr-stuck-off@30:unit=12;sensor-noise@0:value=0.1") == render("") {
		t.Error("faulted fig6 is identical to the unfaulted one: -faults never reached its runs")
	}
}

// TestMalformedFaultsRejectedBeforeRun: a bad schedule fails the command
// before the sweep starts or any output file is created.
func TestMalformedFaultsRejectedBeforeRun(t *testing.T) {
	jsonl := filepath.Join(t.TempDir(), "m.jsonl")
	var out, errOut bytes.Buffer
	err := execute(&out, &errOut, options{experiment: "sweep", duration: 60, seed: 1, faults: "vr-stuck-off@30:unit=x", metrics: true, metricsOut: jsonl})
	if err == nil {
		t.Fatal("malformed fault schedule accepted")
	}
	if out.Len() != 0 || errOut.Len() != 0 {
		t.Errorf("output before rejection:\nstdout: %s\nstderr: %s", out.String(), errOut.String())
	}
	if _, err := os.Stat(jsonl); !os.IsNotExist(err) {
		t.Errorf("metrics file created before rejection: %v", err)
	}
}

func TestRunExperimentStatic(t *testing.T) {
	var buf bytes.Buffer
	opts := experiments.Options{DurationMS: 60, Seed: 1}
	for _, id := range []string{"fig1", "fig2", "fig5"} {
		if err := runExperiment(context.Background(), &buf, id, opts, nil); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	if err := runExperiment(context.Background(), &buf, "fig99", opts, nil); err == nil {
		t.Error("unknown experiment accepted")
	}
	if !strings.Contains(buf.String(), "Fig. 2") {
		t.Error("output missing Fig. 2 header")
	}
}

// TestSweepSetCoversSweepExperiments: -experiment sweep renders exactly
// the six sweep-derived artefacts, each once, in the paper's order; the
// banner goes to stderr.
func TestSweepSetCoversSweepExperiments(t *testing.T) {
	want := []string{"fig7", "fig9", "fig10", "fig11", "table2", "headline"}
	if !slices.Equal(sweepSet, want) {
		t.Fatalf("sweepSet = %v, want %v", sweepSet, want)
	}

	var out, errOut bytes.Buffer
	if err := runExperiments(context.Background(), &out, &errOut, "sweep", experiments.Options{DurationMS: 30, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "running full policy sweep") {
		t.Errorf("sweep banner missing from stderr: %q", errOut.String())
	}
	header := regexp.MustCompile(`(?m)^(Fig\. \d+|Table \d+|Headline) — `)
	var got []string
	for _, m := range header.FindAllStringSubmatch(out.String(), -1) {
		got = append(got, m[1])
	}
	if wantIDs := []string{"Fig. 7", "Fig. 9", "Fig. 10", "Fig. 11", "Table 2", "Headline"}; !slices.Equal(got, wantIDs) {
		t.Errorf("-experiment sweep rendered %v, want %v", got, wantIDs)
	}
}

// TestSweepFailedCellFailsCommand: a failed sweep cell is listed on
// stderr and fails the command, and no partial table prints.
func TestSweepFailedCellFailsCommand(t *testing.T) {
	opts := experiments.Options{DurationMS: 30, Seed: 1}
	opts.Mutate = func(p core.PolicyKind, b workload.Profile, cfg *sim.Config) {
		if p == core.PracT && b.Name == "fft" {
			cfg.WarmupEpochs = -1
		}
	}
	var out, errOut bytes.Buffer
	if err := runExperiments(context.Background(), &out, &errOut, "sweep", opts); err == nil {
		t.Fatal("sweep with a failed cell returned no error")
	}
	if !strings.Contains(errOut.String(), "thermogater: failed run: fft/pracT") {
		t.Errorf("failed cell not listed on stderr:\n%s", errOut.String())
	}
	if strings.Count(errOut.String(), "failed run:") != 1 {
		t.Errorf("want exactly one failed cell listed:\n%s", errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("partial tables printed:\n%s", out.String())
	}
}

// TestInterruptedExperimentPrintsNoTable: a canceled context fails every
// experiment kind with errInterrupted, no table printed and no cell
// listed as failed — the sweep and a run-based figure canceled up front,
// and "all" canceled at its first run after the sweep, when its static
// figures have already rendered.
func TestInterruptedExperimentPrintsNoTable(t *testing.T) {
	check := func(which string, ctx context.Context, opts experiments.Options) {
		t.Helper()
		var out, errOut bytes.Buffer
		err := runExperiments(ctx, &out, &errOut, which, opts)
		if !errors.Is(err, errInterrupted) {
			t.Errorf("%s: interrupted experiment returned %v, want errInterrupted", which, err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: interrupted experiment printed tables:\n%s", which, out.String())
		}
		if strings.Contains(errOut.String(), "failed run:") {
			t.Errorf("%s: canceled cells listed as failed:\n%s", which, errOut.String())
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, which := range []string{"sweep", "fig6"} {
		check(which, canceled, experiments.Options{DurationMS: 30, Seed: 1})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := experiments.Options{DurationMS: 30, Seed: 1, Parallel: 1}
	cells := len(experiments.SweepPolicies()) * len(workload.Suite())
	var runs int
	opts.Mutate = func(core.PolicyKind, workload.Profile, *sim.Config) {
		// One worker, so the calls are serial.
		if runs++; runs == cells+1 {
			cancel()
		}
	}
	check("all", ctx, opts)
	if runs <= cells {
		t.Errorf("all: %d runs started, the sweep has %d cells; the post-sweep cancel never fired", runs, cells)
	}
}

func TestRunExperimentsNonSweepPath(t *testing.T) {
	var buf, errOut bytes.Buffer
	opts := experiments.Options{DurationMS: 60, Seed: 1}
	if err := runExperiments(context.Background(), &buf, &errOut, "fig5", opts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Error("output missing Fig. 5")
	}
	if strings.Contains(errOut.String(), "running full policy sweep") {
		t.Error("static experiment triggered the sweep")
	}
	if err := runExperiments(context.Background(), &buf, &errOut, "fig99", opts); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExecuteMetricsJSONLStream(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "m.jsonl")
	csvPath := filepath.Join(dir, "m.csv")
	var buf bytes.Buffer
	err := execute(&buf, io.Discard, options{
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
	err := execute(&buf, io.Discard, options{
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
	err := execute(&buf, io.Discard, options{
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
