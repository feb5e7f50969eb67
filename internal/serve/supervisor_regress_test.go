package serve

// Regression tests for supervisor lifecycle edges: tombstone
// resubmission, result-cache eviction, goroutine teardown on drain, and
// the Stats/requeue lock ordering.

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// longSpec occupies a worker long enough for the test to act while it
// runs.
func longSpec(seed uint64) JobSpec {
	return JobSpec{Policy: "all-on", Benchmark: "fft", Seed: seed, DurationMS: 5000, WarmupEpochs: 2}
}

// occupyWorker parks a long job on the supervisor's only worker and
// returns a release func that cancels it and waits for it to settle.
func occupyWorker(t *testing.T, sup *Supervisor, seed uint64) func() {
	t.Helper()
	long, _, err := sup.Submit(longSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, StateRunning)
	return func() {
		if err := sup.Cancel(long.ID); err != nil {
			t.Fatal(err)
		}
		<-long.Done()
	}
}

func TestResubmitAfterTombstoneRunsFresh(t *testing.T) {
	// Only the first job of spec 911 panics; its resubmission must run
	// clean.
	var doomedJob atomic.Pointer[Job]
	sup := newTestSupervisor(t, Config{
		Workers: 1,
		panicOn: func(j *Job) bool { return j == doomedJob.Load() },
	})
	release := occupyWorker(t, sup, 910)

	// Queued behind the busy worker, so it cannot start before it is
	// marked: its run panics and the job fails.
	doomed, created, err := sup.Submit(smallSpec(911))
	if err != nil || !created {
		t.Fatalf("submit: created=%v err=%v", created, err)
	}
	doomedJob.Store(doomed)
	// Canceled while queued: the other tombstone flavor.
	axed, _, err := sup.Submit(smallSpec(912))
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.Cancel(axed.ID); err != nil {
		t.Fatal(err)
	}
	<-axed.Done()

	release()
	waitState(t, doomed, StateFailed)

	// Resubmission must replace the tombstones with fresh runs, not
	// return the dead jobs forever.
	fresh, created, err := sup.Submit(smallSpec(911))
	if err != nil {
		t.Fatal(err)
	}
	if !created || fresh == doomed {
		t.Fatalf("failed job not re-admitted: created=%v same=%v", created, fresh == doomed)
	}
	waitState(t, fresh, StateDone)
	fresh2, created2, err := sup.Submit(smallSpec(912))
	if err != nil {
		t.Fatal(err)
	}
	if !created2 || fresh2 == axed {
		t.Fatalf("canceled job not re-admitted: created=%v same=%v", created2, fresh2 == axed)
	}
	waitState(t, fresh2, StateDone)

	// A successfully completed job still dedups.
	again, created3, err := sup.Submit(smallSpec(911))
	if err != nil {
		t.Fatal(err)
	}
	if created3 || again != fresh {
		t.Fatalf("done job no longer dedups: created=%v", created3)
	}
}

func TestResultTTLEviction(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 1})
	j, _, err := sup.Submit(smallSpec(920))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)

	if n := sup.evictExpired(time.Now()); n != 0 {
		t.Fatalf("evicted %d jobs before the TTL expired", n)
	}
	if n := sup.evictExpired(time.Now().Add(sup.cfg.ResultTTL + time.Minute)); n != 1 {
		t.Fatalf("evicted %d expired jobs, want 1", n)
	}
	if _, err := sup.Get(j.ID); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("evicted job still resolvable: %v", err)
	}
	if got := sup.Stats().Evicted; got != 1 {
		t.Errorf("evicted counter = %d, want 1", got)
	}
	// An identical spec resubmitted after eviction runs fresh.
	j2, created, err := sup.Submit(smallSpec(920))
	if err != nil {
		t.Fatal(err)
	}
	if !created || j2 == j {
		t.Fatalf("post-eviction resubmit: created=%v same=%v", created, j2 == j)
	}
	waitState(t, j2, StateDone)
}

func TestStatsDuringRetriesAndPreemptionNoDeadlock(t *testing.T) {
	// Regression for the requeue/Stats ABBA lock inversion: hammer
	// Stats() (s.mu → j.mu) while preemptions drive requeues (j.mu, then
	// the sequence allocator) concurrently. Two jobs on one worker keep
	// the queue non-empty, so the preempt monitor parks whichever runs;
	// explicit Preempt calls add more. Before the fix this wedged the
	// whole supervisor; now it must settle within the deadline.
	sup := newTestSupervisor(t, Config{
		Workers:      1,
		FrozenClock:  true,
		PreemptAfter: 10 * time.Millisecond,
	})
	var jobs []*Job
	for _, seed := range []uint64{950, 951} {
		spec := chaosSpec(seed)
		spec.DurationMS = 600
		j, _, err := sup.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sup.Stats()
			}
		}
	}()
	for round := 0; round < 5; round++ {
		for _, j := range jobs {
			//nolint:errcheck — the job may settle concurrently
			sup.Preempt(j.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-after(t, 60*time.Second):
			close(stop)
			wg.Wait()
			t.Fatalf("supervisor wedged: job stuck in %s while Stats was polled", j.State())
		}
	}
	close(stop)
	wg.Wait()
	for _, j := range jobs {
		if st := j.State(); st != StateDone {
			t.Fatalf("job ended %s, want done", st)
		}
	}
	if sup.Stats().Preempted < 1 {
		t.Fatal("no preemption landed, so no requeue raced Stats")
	}
}

// TestDrainLeavesNoTimersOrGoroutines: a drained supervisor must not
// leave its workers, janitor or preempt monitor behind — the goroutine
// lifecycle shape golife enforces statically. The drain lands while a
// job runs, so a worker has to park it on the way out.
func TestDrainLeavesNoTimersOrGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	sup, err := NewSupervisor(Config{Workers: 2, PreemptAfter: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := sup.Submit(longSpec(940))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	if err := sup.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := j.State(); st != StateParked {
		t.Errorf("drained job is %s, want parked", st)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked past drain: %d before, %d after", before, runtime.NumGoroutine())
}

// TestCancelParkedJobDropsCheckpoint: a job preempted behind another and
// canceled while it waits with its parked checkpoint settles without
// retaining that checkpoint until the result TTL.
func TestCancelParkedJobDropsCheckpoint(t *testing.T) {
	sup := newTestSupervisor(t, Config{Workers: 1})
	j, _, err := sup.Submit(longSpec(930))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	waitStreamLen(t, j, 2048)
	// A preempted job requeues behind next, so it waits with its
	// checkpoint while next runs.
	next, _, err := sup.Submit(longSpec(931))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sup.Cancel(next.ID); err != nil {
			t.Error(err)
		}
		<-next.Done()
	}()
	if err := sup.Preempt(j.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		j.mu.Lock()
		parked := j.state == StateQueued && j.ckpt != nil
		j.mu.Unlock()
		if parked {
			break
		}
		if terminal(j.State()) || time.Now().After(deadline) {
			t.Fatalf("job never parked with a checkpoint (state %s)", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	if err := sup.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if st := j.State(); st != StateCanceled {
		t.Fatalf("state %s, want canceled", st)
	}
	j.mu.Lock()
	held := len(j.ckpt)
	j.mu.Unlock()
	if held != 0 {
		t.Errorf("canceled job retains a %d-byte checkpoint", held)
	}
}
