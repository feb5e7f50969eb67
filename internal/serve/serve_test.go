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
	explicit := JobSpec{Kind: KindSim, Benchmark: "fft", Policy: "all-on", Seed: 1}
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
		{"sweep", JobSpec{Kind: KindSweep, Policies: []string{"all-on"}, Benchmarks: []string{"fft"}}, true},
		{"faults", JobSpec{Faults: "vr-stuck-off@30:unit=12"}, true},
		{"bad kind", JobSpec{Kind: "bulk"}, false},
		{"bad policy", JobSpec{Policy: "warp-speed"}, false},
		{"bad benchmark", JobSpec{Benchmark: "crysis"}, false},
		{"bad faults", JobSpec{Faults: "meteor-strike@1"}, false},
		{"empty sweep", JobSpec{Kind: KindSweep}, false},
		{"sim with grid", JobSpec{Policies: []string{"all-on"}}, false},
		{"wild priority", JobSpec{Priority: 10000}, false},
		{"negative duration", JobSpec{DurationMS: -1}, false},
		{"run within its warm-up", JobSpec{Policy: "all-on", Benchmark: "fft", DurationMS: 10, WarmupEpochs: 50}, false},
		{"sweep within its warm-up", JobSpec{Kind: KindSweep, Policies: []string{"all-on"}, Benchmarks: []string{"fft"}, DurationMS: 10, WarmupEpochs: 50}, false},
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

	// Unknown job is a 404, invalid spec a 400.
	getJSON(t, ts.URL+"/jobs/ffffffffffffffff", http.StatusNotFound, &apiError{})
	resp3, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"policy":"warp"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec returned %d, want 400", resp3.StatusCode)
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
	if err := sup.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if err := sup.Cancel(queued.ID); err != nil {
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

func TestRetryBackoffAndFailureRecord(t *testing.T) {
	sup := newTestSupervisor(t, Config{
		Workers:      1,
		MaxAttempts:  2,
		RetryBackoff: 5 * time.Millisecond,
	})
	// Arm the first attempt before it can start: the job waits in the
	// queue behind an occupied worker until release.
	release := occupyWorker(t, sup, 199)
	j, _, err := sup.Submit(smallSpec(200))
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Kill(j.ID); err != nil {
		t.Fatal(err)
	}
	// A second long job queued behind the first attempt takes the worker
	// while the job backs off; a requeue gets a fresh sequence number, so
	// the retry waits behind it. Re-arm the crash while the retry is
	// queued, then free the worker: the retry panics at its first record
	// too, however the scheduler interleaves the backoff timer.
	blocker, _, err := sup.Submit(longSpec(198))
	if err != nil {
		t.Fatal(err)
	}
	release()
	waitState(t, blocker, StateRunning)
	deadline := time.Now().Add(30 * time.Second)
	for {
		j.mu.Lock()
		queued := j.state == StateQueued && j.attempts == 1
		if queued {
			j.crashArmed = true
		}
		j.mu.Unlock()
		if queued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retry never queued: state %v", j.Snapshot().State)
		}
		time.Sleep(time.Millisecond)
	}
	if err := sup.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateFailed)
	st := j.Snapshot()
	if st.Failure == nil {
		t.Fatal("failed job carries no failure record")
	}
	if !st.Failure.Panicked {
		t.Error("panic not recorded in the failure")
	}
	if st.Failure.Attempts != 2 {
		t.Errorf("failure records %d attempts, want 2", st.Failure.Attempts)
	}
	if st.Failure.BackoffMS <= 0 {
		t.Errorf("no backoff budget recorded: %d ms", st.Failure.BackoffMS)
	}
	if !strings.Contains(st.Failure.Error, "panicked") {
		t.Errorf("failure text %q does not mention the panic", st.Failure.Error)
	}
	if sup.Stats().Crashes < 2 {
		t.Errorf("crash counter = %d, want >= 2", sup.Stats().Crashes)
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

func TestSweepFanOutAggregateAndDedup(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 2})
	sweep := JobSpec{
		Kind:         KindSweep,
		Policies:     []string{"all-on"},
		Benchmarks:   []string{"fft", "lu_ncb"},
		Seed:         400,
		DurationMS:   5,
		WarmupEpochs: 2,
	}
	parent, created, err := sup.Submit(sweep)
	if err != nil || !created {
		t.Fatalf("submit sweep: created=%v err=%v", created, err)
	}
	waitState(t, parent, StateDone)
	sw, ok := parent.Sweep()
	if !ok {
		t.Fatal("done sweep has no aggregate")
	}
	if len(sw.Cells) != 2 || sw.Done != 2 || sw.Failed != 0 {
		t.Fatalf("sweep aggregate: %+v", sw)
	}
	for _, cell := range sw.Cells {
		child, err := sup.Get(cell.JobID)
		if err != nil {
			t.Fatalf("child %s unknown: %v", cell.JobID, err)
		}
		if _, done := child.Result(); !done {
			t.Fatalf("child %s not done", cell.JobID)
		}
	}
	// A standalone submission of one cell dedups onto the finished child.
	cellSpec := JobSpec{Policy: "all-on", Benchmark: "fft", Seed: 400, DurationMS: 5, WarmupEpochs: 2}
	j, created, err := sup.Submit(cellSpec)
	if err != nil {
		t.Fatal(err)
	}
	if created || j.State() != StateDone {
		t.Fatalf("cell dedup: created=%v state=%s", created, j.State())
	}
}

func TestDrainSpoolsAndRestartResumes(t *testing.T) {
	spool := t.TempDir()
	spec := JobSpec{Policy: "all-on", Benchmark: "fft", Seed: 500, DurationMS: 400, WarmupEpochs: 2}
	queuedSpec := smallSpec(501)
	want := referenceStream(t, spec)

	sup, err := NewSupervisor(Config{Workers: 1, SpoolDir: spool, FrozenClock: true, CheckpointEvery: 50})
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
	sup2 := newTestSupervisor(t, Config{Workers: 1, SpoolDir: spool, FrozenClock: true, CheckpointEvery: 50})
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
