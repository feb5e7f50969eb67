package main

// Process-level graceful-shutdown test: a real thermogater process is
// SIGTERMed mid-run and must exit 0, report the epoch it stopped at, and
// leave a telemetry file flushed through that epoch.

import (
	"bufio"
	"bytes"
	"encoding/json"
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

	// SIGTERM once the stream shows real progress.
	var stdout, stderr bytes.Buffer
	victim := exec.Command(bin, "-run", "all-on", "-bench", "fft", "-duration", "2500", "-metrics-out", jsonl)
	victim.Stdout = &stdout
	victim.Stderr = &stderr
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
	if err := victim.Wait(); err != nil {
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
