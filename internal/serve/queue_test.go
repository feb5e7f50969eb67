package serve

import (
	"errors"
	"testing"
	"time"
)

func testJob(prio int, seq uint64) *Job {
	return newJob(JobSpec{Policy: "all-on", Benchmark: "fft", Seed: seq + 1, Priority: prio}, seq)
}

func TestQueuePriorityAndFIFO(t *testing.T) {
	q := newQueue(16)
	stop := make(chan struct{})
	// Same priority keeps submission order; higher priority jumps ahead.
	jobs := []*Job{testJob(0, 1), testJob(0, 2), testJob(5, 3), testJob(-1, 4), testJob(5, 5)}
	for _, j := range jobs {
		if err := q.Push(j, false); err != nil {
			t.Fatal(err)
		}
	}
	wantSeq := []uint64{3, 5, 1, 2, 4}
	for i, want := range wantSeq {
		j := q.Pop(stop)
		if j.seq != want {
			t.Fatalf("pop %d returned seq %d, want %d", i, j.seq, want)
		}
	}
}

func TestQueueShedsAtCapacity(t *testing.T) {
	q := newQueue(2)
	if err := q.Push(testJob(0, 1), false); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(testJob(0, 2), false); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(testJob(0, 3), false); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity push returned %v, want ErrQueueFull", err)
	}
	// Re-admission of already-accepted work bypasses the cap.
	if err := q.Push(testJob(0, 4), true); err != nil {
		t.Fatalf("forced push failed: %v", err)
	}
	if q.Len() != 3 {
		t.Fatalf("queue length %d, want 3", q.Len())
	}
}

func TestQueueSkipsCanceled(t *testing.T) {
	q := newQueue(8)
	a, b := testJob(0, 1), testJob(0, 2)
	if err := q.Push(a, false); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(b, false); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	a.finish(StateCanceled)
	a.mu.Unlock()
	stop := make(chan struct{})
	if j := q.Pop(stop); j != b {
		t.Fatalf("pop skipped wrong job: got seq %d", j.seq)
	}
}

func TestQueuePopBlocksUntilPushOrStop(t *testing.T) {
	q := newQueue(8)
	stop := make(chan struct{})
	got := make(chan *Job, 1)
	go func() { got <- q.Pop(stop) }()
	select {
	case j := <-got:
		t.Fatalf("pop returned %v from an empty queue", j)
	case <-after(t, 20*time.Millisecond):
	}
	want := testJob(0, 9)
	if err := q.Push(want, false); err != nil {
		t.Fatal(err)
	}
	select {
	case j := <-got:
		if j != want {
			t.Fatal("pop returned the wrong job")
		}
	case <-after(t, 2*time.Second):
		t.Fatal("pop never woke after push")
	}

	// And stop unblocks a parked pop with nil.
	go func() { got <- q.Pop(stop) }()
	close(stop)
	select {
	case j := <-got:
		if j != nil {
			t.Fatalf("stopped pop returned %v, want nil", j)
		}
	case <-after(t, 2*time.Second):
		t.Fatal("pop never observed stop")
	}
}

func TestQueueWakeChain(t *testing.T) {
	// Two parked workers, two quick pushes: both must be served even
	// though the notify channel holds a single token.
	q := newQueue(8)
	stop := make(chan struct{})
	got := make(chan *Job, 2)
	for i := 0; i < 2; i++ {
		go func() { got <- q.Pop(stop) }()
	}
	time.Sleep(10 * time.Millisecond) // let both park
	if err := q.Push(testJob(0, 1), false); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(testJob(0, 2), false); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		select {
		case j := <-got:
			seen[j.seq] = true
		case <-after(t, 2*time.Second):
			t.Fatalf("only %d of 2 workers woke: %v", i, seen)
		}
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("wrong jobs served: %v", seen)
	}
}

func TestQueueCloseReturnsBacklog(t *testing.T) {
	q := newQueue(8)
	for i := 0; i < 3; i++ {
		if err := q.Push(testJob(0, uint64(i+1)), false); err != nil {
			t.Fatal(err)
		}
	}
	left := q.Close()
	if len(left) != 3 {
		t.Fatalf("close returned %d jobs, want 3", len(left))
	}
	if err := q.Push(testJob(0, 9), true); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("push after close returned %v, want ErrQueueClosed", err)
	}
	stop := make(chan struct{})
	if j := q.Pop(stop); j != nil {
		t.Fatalf("pop after close returned %v, want nil", j)
	}
}
