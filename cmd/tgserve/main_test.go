package main

// Process-level robustness tests: a real tgserve process is started,
// loaded over HTTP, killed with SIGTERM mid-job, and restarted over the
// same spool directory. The stitched post-restart telemetry stream must
// be byte-identical to an uninterrupted server's — the end-to-end form
// of the guarantee the in-process chaos suite checks per layer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildServe compiles the tgserve binary once per test binary.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tgserve")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building tgserve: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves an ephemeral localhost port.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

type serveProc struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
}

func startServe(t *testing.T, bin, addr, spool string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-workers", "1",
		"-spool", spool,
		"-frozen-clock",
	)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, addr: addr, stderr: &stderr}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	// Wait for the server to come up.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server on %s never became healthy; stderr:\n%s", addr, stderr.String())
	return nil
}

func (p *serveProc) url(path string) string { return "http://" + p.addr + path }

func (p *serveProc) submit(t *testing.T, spec map[string]any) string {
	t.Helper()
	b, _ := json.Marshal(spec)
	resp, err := http.Post(p.url("/jobs"), "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

func (p *serveProc) status(t *testing.T, id string) (state string, streamLen int) {
	t.Helper()
	resp, err := http.Get(p.url("/jobs/" + id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		State     string `json:"state"`
		StreamLen int    `json:"stream_len"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.State, st.StreamLen
}

func (p *serveProc) waitDone(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		state, _ := p.status(t, id)
		switch state {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s ended %s", id, state)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
}

func (p *serveProc) stream(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(p.url("/jobs/" + id + "/stream"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeSIGTERMDrainRestartByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level test")
	}
	bin := buildServe(t)
	longSpec := map[string]any{
		"policy": "all-on", "benchmark": "fft", "seed": 900,
		"duration_ms": 2000, "warmup_epochs": 2,
	}
	shortSpec := map[string]any{
		"policy": "all-on", "benchmark": "fft", "seed": 901,
		"duration_ms": 5, "warmup_epochs": 2,
	}

	// Reference: an uninterrupted server over its own spool.
	ref := startServe(t, bin, freeAddr(t), t.TempDir())
	refID := ref.submit(t, longSpec)
	ref.waitDone(t, refID)
	want := ref.stream(t, refID)
	if len(want) == 0 {
		t.Fatal("reference stream is empty")
	}
	if err := ref.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := ref.cmd.Wait(); err != nil {
		t.Fatalf("reference server exited uncleanly: %v\n%s", err, ref.stderr.String())
	}

	// Victim: same long job plus a queued short one, SIGTERMed mid-run.
	spool := t.TempDir()
	p1 := startServe(t, bin, freeAddr(t), spool)
	longID := p1.submit(t, longSpec)
	shortID := p1.submit(t, shortSpec)
	if longID != refID {
		t.Fatalf("content-hash IDs diverged across processes: %s vs %s", longID, refID)
	}
	// Let the long job make real progress first.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		state, n := p1.status(t, longID)
		if state == "done" {
			t.Skip("long job finished before the SIGTERM landed")
		}
		if state == "running" && n > 4096 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := p1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p1.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERMed server exited uncleanly: %v\n%s", err, p1.stderr.String())
	}
	if !strings.Contains(p1.stderr.String(), "drained cleanly") {
		t.Fatalf("no clean-drain marker in stderr:\n%s", p1.stderr.String())
	}
	for _, id := range []string{longID} {
		if _, err := os.Stat(filepath.Join(spool, id+".job")); err != nil {
			t.Fatalf("job %s not spooled: %v", id, err)
		}
	}

	// Restart over the same spool: both jobs must finish, and the
	// stitched long-job stream must match the uninterrupted reference
	// byte for byte.
	p2 := startServe(t, bin, freeAddr(t), spool)
	p2.waitDone(t, longID)
	p2.waitDone(t, shortID)
	got := p2.stream(t, longID)
	if !bytes.Equal(got, want) {
		t.Fatalf("stitched stream (%d bytes) differs from the uninterrupted reference (%d bytes)", len(got), len(want))
	}
	// Every record exactly once: JSONL line count must match too.
	if gl, wl := bytes.Count(got, []byte("\n")), bytes.Count(want, []byte("\n")); gl != wl {
		t.Fatalf("record counts differ: %d vs %d", gl, wl)
	}
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p2.cmd.Wait(); err != nil {
		t.Fatalf("restarted server exited uncleanly: %v\n%s", err, p2.stderr.String())
	}
}

// TestServeReportsSkippedSpoolEntries: a spool entry the service cannot
// re-admit is named on stderr at start, so an operator learns of it
// without listing the spool directory.
func TestServeReportsSkippedSpoolEntries(t *testing.T) {
	bin := buildServe(t)
	spool := t.TempDir()
	if err := os.WriteFile(filepath.Join(spool, "0123456789abcdef.job"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := startServe(t, bin, freeAddr(t), spool)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("server exited uncleanly: %v\n%s", err, p.stderr.String())
	}
	if want := "skipped 1 unreadable or old-schema spool entries"; !strings.Contains(p.stderr.String(), want) {
		t.Fatalf("stderr lacks %q:\n%s", want, p.stderr.String())
	}
}

// TestMain keeps subprocess builds honest about the working directory.
func TestMain(m *testing.M) {
	if _, err := os.Stat("main.go"); err != nil {
		fmt.Fprintln(os.Stderr, "tgserve tests must run from cmd/tgserve:", err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}
