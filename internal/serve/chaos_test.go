package serve

// The in-process chaos suite: every test injects a failure mode the
// robustness layer claims to survive — a worker dying mid-job, repeated
// preemption, a drain/restart cycle, slow and disconnecting stream
// clients, fault-schedule jobs — and asserts the service's invariants
// held: no job lost, no record duplicated, and (under a frozen clock)
// the final telemetry stream byte-identical to an uninterrupted run's.
// scripts/chaos_serve.sh and `make race` run these with -race.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// chaosSpec is a job long enough to interrupt mid-flight but cheap
// enough for a single-core CI box.
func chaosSpec(seed uint64) JobSpec {
	return JobSpec{Policy: "all-on", Benchmark: "fft", Seed: seed, DurationMS: 300, WarmupEpochs: 2}
}

// waitStreamLen blocks until the job's stream holds at least n bytes or
// the job settles.
func waitStreamLen(t *testing.T, j *Job, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.Stream().Len() < n && time.Now().Before(deadline) {
		select {
		case <-j.Done():
			return
		default:
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestChaosKillResumeByteIdentical(t *testing.T) {
	spec := chaosSpec(700)
	want := referenceStream(t, spec)

	sup := newTestSupervisor(t, Config{
		Workers:         1,
		FrozenClock:     true,
		CheckpointEvery: 10, // tight snapshots so the crash loses little
		MaxAttempts:     3,
		RetryBackoff:    time.Millisecond,
	})
	j, _, err := sup.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let it make progress past a snapshot, then kill the attempt.
	waitStreamLen(t, j, 4096)
	if j.State() == StateDone {
		t.Skip("job finished before the kill landed")
	}
	if err := sup.Kill(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)

	got := j.Stream().Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash stream (%d bytes) differs from the uninterrupted reference (%d bytes)", len(got), len(want))
	}
	st := sup.Stats()
	if st.Crashes < 1 {
		t.Errorf("crash not counted: %+v", st)
	}
	if st.Retries < 1 {
		t.Errorf("retry not counted: %+v", st)
	}
	snap := j.Snapshot()
	if snap.Attempts < 2 {
		t.Errorf("job recorded %d attempts, want >= 2", snap.Attempts)
	}
}

// TestChaosRepeatedPreemptionByteIdentical parks a running job up to
// three times and checks the resumed stream against an uninterrupted
// run. The pracVT row carries θ state and the supervisor's θ memo across
// each park, which the all-on row cannot exercise.
func TestChaosRepeatedPreemptionByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name            string
		spec            JobSpec
		checkpointEvery int
		// mustPark fails the row when no preemption lands instead of
		// skipping it: the run is long enough that one always should.
		mustPark bool
	}{
		{name: "all-on", spec: chaosSpec(701), checkpointEvery: 25},
		{
			name:            "pracVT",
			spec:            JobSpec{Policy: "pracVT", Benchmark: "lu_ncb", Seed: 7, DurationMS: 200, WarmupEpochs: 5},
			checkpointEvery: 50,
			mustPark:        true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceStream(t, tc.spec)

			sup := newTestSupervisor(t, Config{
				Workers:         2,
				FrozenClock:     true,
				CheckpointEvery: tc.checkpointEvery,
			})
			j, _, err := sup.Submit(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			// Preempt is a no-op unless the job is running at that instant, so
			// count landed parks from the supervisor's counter, not our calls.
			for round := 0; round < 3; round++ {
				waitStreamLen(t, j, (round+1)*2048)
				if j.State() == StateDone {
					break
				}
				if err := sup.Preempt(j.ID); err != nil {
					t.Fatal(err)
				}
				time.Sleep(5 * time.Millisecond) // let the park land before the next round
			}
			waitState(t, j, StateDone)
			parks := sup.Stats().Preempted
			got := j.Stream().Bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("stream after %d preemptions (%d bytes) differs from the reference (%d bytes)", parks, len(got), len(want))
			}
			if parks < 1 {
				if tc.mustPark {
					t.Fatal("no preemption landed")
				}
				// Preemption lands only against a running job; on a fast or
				// noisily scheduled box the run can finish between the stream
				// checks and every park request. Same escape as the kill test.
				t.Skip("job finished before any preemption landed")
			}
			// Preemption spends no attempts: parking is not failing.
			if snap := j.Snapshot(); snap.Attempts != 1 {
				t.Errorf("preempted job consumed %d attempts, want 1", snap.Attempts)
			}
		})
	}
}

func TestChaosElasticPreemptionUnblocksSmallJobs(t *testing.T) {
	sup := newTestSupervisor(t, Config{
		Workers:         1,
		FrozenClock:     true,
		CheckpointEvery: 10,
		PreemptAfter:    30 * time.Millisecond,
	})
	long, _, err := sup.Submit(JobSpec{Policy: "all-on", Benchmark: "fft", Seed: 710, DurationMS: 5000, WarmupEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, StateRunning)
	small, _, err := sup.Submit(smallSpec(711))
	if err != nil {
		t.Fatal(err)
	}
	// The monitor must park the hog so the small job gets the worker.
	waitState(t, small, StateDone)
	if sup.Stats().Preempted < 1 {
		t.Errorf("elastic preemption never fired: %+v", sup.Stats())
	}
	if err := sup.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	<-long.Done()
}

func TestChaosDrainSpoolRestartMidCrash(t *testing.T) {
	// Crash, then drain while the job waits out its retry backoff, then
	// restart: the spooled resume point must carry through to a
	// byte-identical finish.
	spool := t.TempDir()
	spec := chaosSpec(720)
	want := referenceStream(t, spec)

	sup, err := NewSupervisor(Config{
		Workers:         1,
		SpoolDir:        spool,
		FrozenClock:     true,
		CheckpointEvery: 10,
		RetryBackoff:    5 * time.Second, // long enough that drain beats the retry
	})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := sup.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStreamLen(t, j, 4096)
	if j.State() == StateDone {
		t.Skip("job finished before the crash landed")
	}
	if err := sup.Kill(j.ID); err != nil {
		t.Fatal(err)
	}
	// Wait for the crash to park the job into its backoff window.
	waitState(t, j, StateParked)
	if err := sup.Drain(); err != nil {
		t.Fatal(err)
	}

	sup2 := newTestSupervisor(t, Config{
		Workers:         1,
		SpoolDir:        spool,
		FrozenClock:     true,
		CheckpointEvery: 10,
	})
	j2, err := sup2.Get(j.ID)
	if err != nil {
		t.Fatalf("crashed job not restored from spool: %v", err)
	}
	waitState(t, j2, StateDone)
	got := j2.Stream().Bytes()
	if !bytes.Equal(got, want) {
		t.Fatalf("crash+drain+restart stream (%d bytes) differs from the reference (%d bytes)", len(got), len(want))
	}
}

func TestChaosSlowAndDisconnectingStreamClients(t *testing.T) {
	shortTimeout := 50 * time.Millisecond
	oldTimeout := streamWriteTimeout
	streamWriteTimeout = shortTimeout
	oldHeartbeat := heartbeatInterval
	heartbeatInterval = 10 * time.Millisecond
	defer func() {
		streamWriteTimeout = oldTimeout
		heartbeatInterval = oldHeartbeat
	}()

	sup := newTestSupervisor(t, Config{Workers: 1, FrozenClock: true})
	ts := httptest.NewServer(NewServer(sup))
	defer ts.Close()

	j, _, err := sup.Submit(chaosSpec(730))
	if err != nil {
		t.Fatal(err)
	}

	// A client that connects and never reads: the per-chunk write
	// deadline must disconnect it without stalling the job.
	stalled, err := http.Get(ts.URL + "/jobs/" + j.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	// Read nothing; just hold the connection open.
	var disconnected sync.WaitGroup
	disconnected.Add(1)
	go func() {
		defer disconnected.Done()
		time.Sleep(5 * shortTimeout)
		stalled.Body.Close()
	}()

	// A client that disconnects mid-stream: the handler must return.
	partial, err := http.Get(ts.URL + "/jobs/" + j.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	if _, err := io.ReadFull(partial.Body, buf); err != nil {
		t.Fatalf("reading the first stream chunk: %v", err)
	}
	partial.Body.Close()

	// Neither client may hurt the job.
	waitState(t, j, StateDone)
	disconnected.Wait()

	// A well-behaved late reader still gets the canonical bytes (plus
	// heartbeats, which are live-only and must parse as records).
	want := referenceStream(t, chaosSpec(730))
	got := getBody(t, ts.URL+"/jobs/"+j.ID+"/stream", http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Fatalf("late reader got %d bytes, reference is %d", len(got), len(want))
	}
	if bytes.Contains(j.Stream().Bytes(), []byte("heartbeat")) {
		t.Fatal("a heartbeat leaked into the stored stream")
	}
}

func TestChaosFaultScheduleJobSurvives(t *testing.T) {
	// A job whose simulation itself carries an injected fault schedule:
	// the service must run it like any other and the stream must still be
	// reproducible.
	spec := JobSpec{
		Policy:       "pracVT",
		Benchmark:    "fft",
		Seed:         740,
		DurationMS:   50,
		WarmupEpochs: 2,
		Faults:       "vr-stuck-off@30:unit=3",
	}
	want := referenceStream(t, spec)
	sup := newTestSupervisor(t, Config{Workers: 1, FrozenClock: true, CheckpointEvery: 10})
	j, _, err := sup.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if got := j.Stream().Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("fault-schedule job stream differs (%d vs %d bytes)", len(got), len(want))
	}
}

func TestChaosKillStormNeverLosesJobs(t *testing.T) {
	// A burst of jobs with kills sprayed across them: every job must
	// still reach a terminal state, none may vanish, and completed ones
	// stay byte-deterministic.
	const n = 8
	sup := newTestSupervisor(t, Config{
		Workers:         2,
		FrozenClock:     true,
		CheckpointEvery: 10,
		MaxAttempts:     5,
		RetryBackoff:    time.Millisecond,
	})
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, _, err := sup.Submit(JobSpec{Policy: "all-on", Benchmark: "fft", Seed: uint64(750 + i), DurationMS: 60, WarmupEpochs: 2})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	// Spray kills while the burst runs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 3; round++ {
			for _, j := range jobs {
				if j.State() == StateRunning {
					//nolint:errcheck — the job may settle concurrently
					sup.Kill(j.ID)
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	<-done
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-after(t, 60*time.Second):
			t.Fatalf("job %s never settled (state %s)", j.ID, j.State())
		}
		if st := j.State(); st != StateDone && st != StateFailed {
			t.Fatalf("job %s ended %s", j.ID, st)
		}
		if _, err := sup.Get(j.ID); err != nil {
			t.Fatalf("job %s vanished from the table: %v", j.ID, err)
		}
	}
	// Spot-check determinism on the first completed job.
	for _, j := range jobs {
		if j.State() != StateDone {
			continue
		}
		want := referenceStream(t, j.Spec)
		if got := j.Stream().Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("kill-storm survivor %s stream differs (%d vs %d bytes)", j.ID, len(got), len(want))
		}
		break
	}
}
