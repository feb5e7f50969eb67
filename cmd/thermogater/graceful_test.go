package main

// Process-level graceful-shutdown tests: a real thermogater process is
// SIGTERMed mid-run. A single run must exit 0, report the epoch it stopped
// at, and leave a telemetry file flushed through that epoch; an experiment
// must fail with no table printed and leave a telemetry file of whole
// JSON lines.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

func buildThermogater(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "thermogater")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building thermogater: %v\n%s", err, out)
	}
	return bin
}

func TestSIGTERMReportsEpochAndFlushesTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	bin := buildThermogater(t)
	jsonl := filepath.Join(t.TempDir(), "m.jsonl")

	var stdout, stderr bytes.Buffer
	victim := exec.Command(bin, "-run", "all-on", "-bench", "fft", "-duration", "2500", "-metrics-out", jsonl)
	victim.Stdout = &stdout
	victim.Stderr = &stderr
	if err := startAndTerm(t, victim, jsonl); err != nil {
		t.Fatalf("SIGTERMed run exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
	}
	m := regexp.MustCompile(`interrupted after epoch (\d+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		if strings.Contains(stdout.String(), "max temperature") {
			t.Skip("run finished before the SIGTERM landed")
		}
		t.Fatalf("interrupted run reported no stopping epoch\nstderr:\n%s", stderr.String())
	}
	stopped, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}

	// Every line of the flushed file is a whole JSON record, and the last
	// epoch record is the epoch the process reported.
	f, err := os.Open(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lastEpoch := -1
	var n int
	for sc.Scan() {
		n++
		var rec struct {
			Record string `json:"record"`
			Epoch  int    `json:"epoch"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", n, err, sc.Bytes())
		}
		if rec.Record == "epoch" {
			lastEpoch = rec.Epoch
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lastEpoch != stopped {
		t.Errorf("telemetry ends at epoch %d, process reported epoch %d", lastEpoch, stopped)
	}
}

// startAndTerm starts the command, waits until its telemetry file holds
// real progress, and SIGTERMs it. It returns the command's exit error.
func startAndTerm(t *testing.T, victim *exec.Cmd, jsonl string) error {
	t.Helper()
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st, err := os.Stat(jsonl); err == nil && st.Size() > 4096 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := victim.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	return victim.Wait()
}

// jsonLines parses every line of a JSONL file, failing on the first line
// that is not a whole JSON record, and returns the line count.
func jsonLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var n int
	for sc.Scan() {
		n++
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("line %d is not JSON:\n%s", n, sc.Bytes())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSIGTERMStopsExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	bin := buildThermogater(t)
	jsonl := filepath.Join(t.TempDir(), "x.jsonl")
	var stdout, stderr bytes.Buffer
	victim := exec.Command(bin, "-experiment", "fig9", "-duration", "3000", "-metrics-out", jsonl)
	victim.Stdout = &stdout
	victim.Stderr = &stderr
	err := startAndTerm(t, victim, jsonl)
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("SIGTERMed experiment exited with %v, want a non-zero exit\nstderr:\n%s", err, stderr.String())
	}
	if !exit.Exited() || exit.ExitCode() == 0 {
		t.Fatalf("SIGTERMed experiment was killed (%v) instead of exiting non-zero\nstderr:\n%s", exit, stderr.String())
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Errorf("stderr does not report the interruption:\n%s", stderr.String())
	}
	if strings.Contains(stderr.String(), "failed run:") {
		t.Errorf("canceled cells listed as failed:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted experiment printed tables:\n%s", stdout.String())
	}
	if n := jsonLines(t, jsonl); n == 0 {
		t.Error("telemetry file is empty")
	}
}
