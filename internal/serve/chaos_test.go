package serve

// The in-process chaos suite: every test injects a failure mode the
// robustness layer claims to survive — jobs panicking mid-stream,
// repeated preemption, slow and disconnecting stream clients,
// fault-schedule jobs — and asserts the service's invariants held: no job
// lost, no record duplicated, and (under a frozen clock) the final
// telemetry stream byte-identical to an uninterrupted run's.
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

// TestChaosRepeatedPreemptionByteIdentical parks a running job up to
// three times and checks the resumed stream against an uninterrupted
// run. The pracVT row carries θ state and the supervisor's θ memo across
// each park, which the all-on row cannot exercise.
func TestChaosRepeatedPreemptionByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		// mustPark fails the row when no preemption lands instead of
		// skipping it: the run is long enough that one always should.
		mustPark bool
	}{
		{name: "all-on", spec: chaosSpec(701)},
		{
			name:     "pracVT",
			spec:     JobSpec{Policy: "pracVT", Benchmark: "lu_ncb", Seed: 7, DurationMS: 200, WarmupEpochs: 5},
			mustPark: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceStream(t, tc.spec)

			sup := newTestSupervisor(t, Config{Workers: 2, FrozenClock: true})
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
				// checks and every park request.
				t.Skip("job finished before any preemption landed")
			}
		})
	}
}

func TestChaosElasticPreemptionUnblocksSmallJobs(t *testing.T) {
	sup := newTestSupervisor(t, Config{
		Workers:      1,
		FrozenClock:  true,
		PreemptAfter: 30 * time.Millisecond,
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
	sup := newTestSupervisor(t, Config{Workers: 1, FrozenClock: true})
	j, _, err := sup.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if got := j.Stream().Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("fault-schedule job stream differs (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosKillStormNeverLosesJobs runs a burst of jobs on two workers
// while a fixed subset of them panics mid-stream: every job must reach a
// terminal state, none may vanish, the panicking ones fail with the panic
// recorded, and every survivor's stream is byte-identical to an
// uninterrupted run's.
func TestChaosKillStormNeverLosesJobs(t *testing.T) {
	const n = 8
	doomed := func(spec JobSpec) bool { return spec.Seed%3 == 0 }
	sup := newTestSupervisor(t, Config{
		Workers:     2,
		FrozenClock: true,
		panicOn: func(j *Job) bool {
			return doomed(j.Spec) && j.Stream().Len() >= 2048
		},
	})
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j, _, err := sup.Submit(JobSpec{Policy: "all-on", Benchmark: "fft", Seed: uint64(750 + i), DurationMS: 60, WarmupEpochs: 2})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var failed int64
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-after(t, 60*time.Second):
			t.Fatalf("job %s never settled (state %s)", j.ID, j.State())
		}
		if _, err := sup.Get(j.ID); err != nil {
			t.Fatalf("job %s vanished from the table: %v", j.ID, err)
		}
		st := j.Snapshot()
		if doomed(j.Spec) {
			failed++
			if st.State != StateFailed || st.Failure == nil || !st.Failure.Panicked {
				t.Fatalf("panicking job %s ended %s with failure %+v, want failed and panicked", j.ID, st.State, st.Failure)
			}
			continue
		}
		if st.State != StateDone {
			t.Fatalf("job %s ended %s, want done", j.ID, st.State)
		}
		want := referenceStream(t, j.Spec)
		if got := j.Stream().Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("survivor %s stream differs (%d vs %d bytes)", j.ID, len(got), len(want))
		}
	}
	if st := sup.Stats(); st.Crashes != failed || st.Failed != failed || st.Completed != n-failed {
		t.Fatalf("stats %+v, want %d crashes and failures, %d completed", st, failed, n-failed)
	}
}
