package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
)

// smallSpec is a cheap job: all-on (no profiling pass), a few epochs.
func smallSpec(seed uint64) JobSpec {
	return JobSpec{Policy: "all-on", Benchmark: "fft", Seed: seed, DurationMS: 5, WarmupEpochs: 2}
}

// after is time.After with a bounded lifetime: the timer is stopped on
// test cleanup instead of lingering until it fires, so timeout guards —
// especially ones armed per loop iteration — leave no live timers
// behind a passing test.
func after(t *testing.T, d time.Duration) <-chan time.Time {
	t.Helper()
	tm := time.NewTimer(d)
	t.Cleanup(func() { tm.Stop() })
	return tm.C
}

// waitState polls until the job reaches the wanted state or the deadline.
func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
}

// referenceStream runs the spec directly under a frozen clock and returns
// the canonical JSONL bytes an uninterrupted run produces.
func referenceStream(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	cfg, err := spec.simConfig()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	epoch := time.Unix(0, 0)
	reg.SetClock(func() time.Time { return epoch })
	var buf bytes.Buffer
	sink := telemetry.NewJSONLSink(&buf)
	reg.AddSink(sink)
	cfg.Telemetry = reg
	r, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestSupervisor(t *testing.T, cfg Config) *Supervisor {
	t.Helper()
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sup.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return sup
}

func TestSpecIDCanonical(t *testing.T) {
	sparse := JobSpec{Benchmark: "fft", Policy: "all-on"}
	explicit := JobSpec{Benchmark: "fft", Policy: "all-on", Seed: 1}
	if sparse.ID() != explicit.ID() {
		t.Error("defaults changed the job identity")
	}
	prio := JobSpec{Benchmark: "fft", Policy: "all-on", Priority: 50}
	if prio.ID() != sparse.ID() {
		t.Error("priority leaked into the job identity")
	}
	other := JobSpec{Benchmark: "fft", Policy: "all-on", Seed: 2}
	if other.ID() == sparse.ID() {
		t.Error("different seeds hashed identically")
	}
	if len(sparse.ID()) != 16 {
		t.Errorf("ID %q is not 16 hex chars", sparse.ID())
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"default sim", JobSpec{}, true},
		{"named sim", smallSpec(1), true},
		{"faults", JobSpec{Faults: "vr-stuck-off@30:unit=12"}, true},
		{"bad policy", JobSpec{Policy: "warp-speed"}, false},
		{"bad benchmark", JobSpec{Benchmark: "crysis"}, false},
		{"bad faults", JobSpec{Faults: "meteor-strike@1"}, false},
		{"wild priority", JobSpec{Priority: 10000}, false},
		{"negative duration", JobSpec{DurationMS: -1}, false},
		{"run within its warm-up", JobSpec{Policy: "all-on", Benchmark: "fft", DurationMS: 10, WarmupEpochs: 50}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: validation passed, want error", c.name)
		}
	}
}

func TestSubmitRunFetchHTTP(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 2, FrozenClock: true})
	ts := httptest.NewServer(NewServer(sup))
	defer ts.Close()

	spec := smallSpec(11)
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !sub.Created || sub.ID != spec.ID() {
		t.Fatalf("submit: code=%d resp=%+v", resp.StatusCode, sub)
	}

	j, err := sup.Get(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)

	// Status endpoint.
	var st Status
	getJSON(t, ts.URL+"/jobs/"+sub.ID, http.StatusOK, &st)
	if st.State != StateDone || st.ID != sub.ID {
		t.Fatalf("status: %+v", st)
	}

	// Result endpoint returns the simulation result.
	var res sim.Result
	getJSON(t, ts.URL+"/jobs/"+sub.ID+"/result", http.StatusOK, &res)
	if res.Epochs <= 0 {
		t.Fatalf("result has no epochs: %+v", res)
	}

	// Stream endpoint returns the canonical JSONL bytes.
	got := getBody(t, ts.URL+"/jobs/"+sub.ID+"/stream", http.StatusOK)
	want := referenceStream(t, spec)
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed %d bytes differ from the %d-byte reference", len(got), len(want))
	}
	// Offset resume serves the exact suffix.
	half := len(want) / 2
	tail := getBody(t, fmt.Sprintf("%s/jobs/%s/stream?from=%d", ts.URL, sub.ID, half), http.StatusOK)
	if !bytes.Equal(tail, want[half:]) {
		t.Fatal("offset stream suffix differs")
	}

	// Resubmission dedups onto the finished job.
	resp2, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub2 SubmitResponse
	if err := json.NewDecoder(resp2.Body).Decode(&sub2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if sub2.Created || sub2.ID != sub.ID || sub2.State != StateDone {
		t.Fatalf("dedup resubmit: %+v", sub2)
	}

	// Unknown job is a 404, invalid spec a 400. A spec naming a job kind
	// is invalid: there is one kind, and the key is not part of JobSpec.
	getJSON(t, ts.URL+"/jobs/ffffffffffffffff", http.StatusNotFound, &apiError{})
	for _, bad := range []string{
		`{"policy":"warp"}`,
		`{"kind":"sweep","policies":["all-on"],"benchmarks":["fft"]}`,
	} {
		resp3, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid spec %s returned %d, want 400", bad, resp3.StatusCode)
		}
	}
}

func getJSON(t *testing.T, url string, wantCode int, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: code %d (want %d): %s", url, resp.StatusCode, wantCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

func getBody(t *testing.T, url string, wantCode int) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: code %d, want %d", url, resp.StatusCode, wantCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLoadSheddingWith429(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 1, QueueLimit: 1})
	ts := httptest.NewServer(NewServer(sup))
	defer ts.Close()

	// Occupy the only worker with a long job...
	long := JobSpec{Policy: "all-on", Benchmark: "fft", Seed: 100, DurationMS: 5000, WarmupEpochs: 2}
	running, _, err := sup.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	// ...fill the queue...
	queued, _, err := sup.Submit(smallSpec(101))
	if err != nil {
		t.Fatal(err)
	}
	// ...and the next submission is shed with 429 + Retry-After.
	body, _ := json.Marshal(smallSpec(102))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if sup.Stats().Shed != 1 {
		t.Errorf("shed counter = %d, want 1", sup.Stats().Shed)
	}
	// A shed job leaves no residue: the same spec resubmits fine later.
	// Canceling the queued job settles it at once, and it is counted
	// before Done closes, so a caller woken by Done reads it in Stats.
	if err := sup.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-queued.Done():
	default:
		t.Fatalf("queued job still %s after Cancel returned", queued.State())
	}
	if got := sup.Stats().Canceled; got != 1 {
		t.Errorf("canceled counter = %d after canceling the queued job, want 1", got)
	}
	if err := sup.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	<-running.Done()
	// The canceled job stays in the heap until the freed worker pops and
	// drops it; resubmit once that has happened.
	deadline := time.Now().Add(30 * time.Second)
	for sup.Stats().Queued > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, err := sup.Submit(smallSpec(102)); err != nil {
		t.Fatalf("resubmit after shed failed: %v", err)
	}
}

// TestPanicFailsJobWorkerSurvives: a job that panics mid-stream fails
// at once with the panic recorded, and the worker it ran on completes the
// next job byte-identically.
func TestPanicFailsJobWorkerSurvives(t *testing.T) {
	sup := newTestSupervisor(t, Config{
		Workers:     1,
		FrozenClock: true,
		panicOn: func(j *Job) bool {
			return j.Spec.Seed == 200 && j.Stream().Len() > 0
		},
	})
	doomed, _, err := sup.Submit(smallSpec(200))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, doomed, StateFailed)
	st := doomed.Snapshot()
	if st.Failure == nil {
		t.Fatal("failed job carries no failure record")
	}
	if !st.Failure.Panicked {
		t.Error("panic not recorded in the failure")
	}
	if !strings.Contains(st.Failure.Error, "panicked") || !strings.Contains(st.Failure.Error, "test panic mid-stream") {
		t.Errorf("failure text %q does not carry the panic", st.Failure.Error)
	}
	if st.StreamLen == 0 {
		t.Error("the panic fired before the first record, not mid-stream")
	}
	if got := sup.Stats().Crashes; got != 1 {
		t.Errorf("crash counter = %d, want 1", got)
	}

	next, _, err := sup.Submit(smallSpec(201))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, next, StateDone)
	if got, want := next.Stream().Bytes(), referenceStream(t, smallSpec(201)); !bytes.Equal(got, want) {
		t.Fatalf("the job after the panic streamed %d bytes, the reference is %d", len(got), len(want))
	}
	doomed.mu.Lock()
	w0 := doomed.worker
	doomed.mu.Unlock()
	next.mu.Lock()
	w1 := next.worker
	next.mu.Unlock()
	if w0 != w1 {
		t.Errorf("the next job ran on worker %d, the panicked one on %d", w1, w0)
	}
	if st := sup.Stats(); st.Failed != 1 || st.Completed != 1 {
		t.Errorf("stats %+v, want 1 failed and 1 completed", st)
	}
}

func TestCancelRunningJob(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 1})
	ts := httptest.NewServer(NewServer(sup))
	defer ts.Close()
	j, _, err := sup.Submit(JobSpec{Policy: "all-on", Benchmark: "fft", Seed: 300, DurationMS: 5000, WarmupEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel returned %d", resp.StatusCode)
	}
	<-j.Done()
	if j.State() != StateCanceled {
		t.Fatalf("job ended %s, want canceled", j.State())
	}
	// The result endpoint reports the tombstone.
	var st Status
	getJSON(t, ts.URL+"/jobs/"+j.ID+"/result", http.StatusGone, &st)
	if st.State != StateCanceled {
		t.Fatalf("tombstone state %s", st.State)
	}
}

func TestDrainSpoolsAndRestartResumes(t *testing.T) {
	spool := t.TempDir()
	spec := JobSpec{Policy: "all-on", Benchmark: "fft", Seed: 500, DurationMS: 400, WarmupEpochs: 2}
	queuedSpec := smallSpec(501)
	want := referenceStream(t, spec)

	sup, err := NewSupervisor(Config{Workers: 1, SpoolDir: spool, FrozenClock: true})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := sup.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	qj, _, err := sup.Submit(queuedSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Let the running job make real progress before draining.
	deadline := time.Now().Add(30 * time.Second)
	for j.Stream().Len() < 2000 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if err := sup.Drain(); err != nil {
		t.Fatal(err)
	}
	if j.State() == StateDone {
		t.Skip("job finished before the drain landed; nothing to resume")
	}
	for _, id := range []string{j.ID, qj.ID} {
		if _, err := os.Stat(filepath.Join(spool, id+".job")); err != nil {
			t.Fatalf("job %s not spooled: %v", id, err)
		}
	}

	// Restart: a fresh supervisor over the same spool resumes both jobs.
	sup2 := newTestSupervisor(t, Config{Workers: 1, SpoolDir: spool, FrozenClock: true})
	j2, err := sup2.Get(j.ID)
	if err != nil {
		t.Fatalf("resumed job missing after restart: %v", err)
	}
	qj2, err := sup2.Get(qj.ID)
	if err != nil {
		t.Fatalf("queued job missing after restart: %v", err)
	}
	waitState(t, j2, StateDone)
	waitState(t, qj2, StateDone)
	got := j2.Stream().Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("stitched post-restart stream (%d bytes) differs from the uninterrupted reference (%d bytes)", len(got), len(want))
	}
	// Settled jobs clean their spool entries up.
	if _, err := os.Stat(filepath.Join(spool, j.ID+".job")); !os.IsNotExist(err) {
		t.Errorf("settled job's spool entry still present (err=%v)", err)
	}
}

// TestSpoolCorruptCheckpointRunsFresh: a spooled job whose checkpoint
// was damaged on disk drops the checkpoint and its stream prefix when it
// is re-admitted, runs from scratch, and still finishes with the stream
// of an uninterrupted run.
func TestSpoolCorruptCheckpointRunsFresh(t *testing.T) {
	spool := t.TempDir()
	spec := JobSpec{Policy: "all-on", Benchmark: "fft", Seed: 510, DurationMS: 400, WarmupEpochs: 2}
	want := referenceStream(t, spec)

	sup, err := NewSupervisor(Config{Workers: 1, SpoolDir: spool, FrozenClock: true})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := sup.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStreamLen(t, j, 2000)
	if err := sup.Drain(); err != nil {
		t.Fatal(err)
	}
	if j.State() == StateDone {
		t.Skip("job finished before the drain landed; nothing to corrupt")
	}
	path := filepath.Join(spool, j.ID+".job")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e spoolEntry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Ckpt) == 0 || len(e.Stream) == 0 {
		t.Fatalf("spooled a mid-run job without its resume point (ckpt %d bytes, stream %d bytes)", len(e.Ckpt), len(e.Stream))
	}
	e.Ckpt[len(e.Ckpt)/2] ^= 0x01
	if b, err = json.Marshal(e); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	sup2 := newTestSupervisor(t, Config{Workers: 1, SpoolDir: spool, FrozenClock: true})
	j2, err := sup2.Get(j.ID)
	if err != nil {
		t.Fatalf("job with a corrupt checkpoint not re-admitted: %v", err)
	}
	waitState(t, j2, StateDone)
	if got := j2.Stream().Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("fresh rerun stream (%d bytes) differs from the uninterrupted reference (%d bytes)", len(got), len(want))
	}
	if ep := j2.Snapshot().Epoch; ep != -1 {
		t.Errorf("job resumed from epoch %d, want a fresh run", ep)
	}
}

// TestSpoolSkipsV1Entries: entries from the schema that still had sweep
// jobs, byte for byte as that schema wrote them under its own IDs, are
// neither re-admitted nor deleted. Decoded as today's JobSpec the sweep
// would come back as a default sim job, and the sim job under a new ID
// that never removes its old file.
func TestSpoolSkipsV1Entries(t *testing.T) {
	spool := t.TempDir()
	v1 := map[string]string{
		"072e4e9a80f91ed4.job": `{"schema":"thermogater/serve-spool/v1","spec":{"kind":"sweep","policies":["all-on"],"benchmarks":["fft"],"seed":1300,"duration_ms":5,"warmup_epochs":2},"epoch":-1}`,
		"5f6747be767cd160.job": `{"schema":"thermogater/serve-spool/v1","spec":{"policy":"all-on","benchmark":"fft","seed":1301,"duration_ms":5,"warmup_epochs":2},"epoch":-1}`,
	}
	for name, body := range v1 {
		if err := os.WriteFile(filepath.Join(spool, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	sup, err := NewSupervisor(Config{Workers: 1, SpoolDir: spool})
	if err != nil {
		t.Fatal(err)
	}
	sup.mu.Lock()
	admitted := len(sup.jobs)
	sup.mu.Unlock()
	if err := sup.Drain(); err != nil {
		t.Fatal(err)
	}
	if admitted != 0 {
		t.Errorf("re-admitted %d jobs from v1 spool entries, want 0", admitted)
	}
	for name, body := range v1 {
		got, err := os.ReadFile(filepath.Join(spool, name))
		if err != nil {
			t.Errorf("v1 entry %s not left in place: %v", name, err)
		} else if string(got) != body {
			t.Errorf("v1 entry %s rewritten", name)
		}
	}
}

func TestHealthAndStats(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 1})
	ts := httptest.NewServer(NewServer(sup))
	defer ts.Close()
	var health map[string]string
	getJSON(t, ts.URL+"/healthz", http.StatusOK, &health)
	j, _, err := sup.Submit(smallSpec(600))
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	var st Stats
	getJSON(t, ts.URL+"/stats", http.StatusOK, &st)
	if st.Submitted != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSupervisorSharesThetaFits: a pracVT job reuses the θ fit of an
// earlier pracT job of the same benchmark and seed, and both results and
// streams equal direct, fresh-fit runs byte for byte.
func TestSupervisorSharesThetaFits(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 1, FrozenClock: true})
	for i, policy := range []string{"pracT", "pracVT"} {
		spec := JobSpec{Policy: policy, Benchmark: "lu_ncb", Seed: 31, DurationMS: 40, WarmupEpochs: 10}
		j, _, err := sup.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		if st := sup.Stats(); st.ThetaHits != int64(i) || st.ThetaMisses != 1 {
			t.Fatalf("after %s: theta_hits %d, theta_misses %d; want %d, 1", policy, st.ThetaHits, st.ThetaMisses, i)
		}

		cfg, err := spec.simConfig()
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		res, ok := j.Result()
		if !ok {
			t.Fatalf("%s: no result", policy)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: service result differs from a direct run", policy)
		}
		if !bytes.Equal(j.Stream().Bytes(), referenceStream(t, spec)) {
			t.Errorf("%s: service stream differs from a direct run's", policy)
		}
	}
}
