package serve

import (
	"context"
	"sync"
	"time"

	"thermogater/internal/sim"
)

// JobState is one node of the lifecycle documented in docs/SERVICE.md:
//
//	queued → running → done
//	            ├────→ parked ─→ queued   (preemption, drain)
//	            ├────→ failed             (error or panic; never retried)
//	            └────→ canceled           (client cancel)
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateParked   JobState = "parked"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Failure is the durable record a failed job leaves behind. Panics are
// recovered into it — a crashing simulation takes down its job, never its
// worker.
type Failure struct {
	// Error is the run's error text.
	Error string `json:"error"`
	// Panicked marks failures recovered from a panic.
	Panicked bool `json:"panicked,omitempty"`
}

// SweepCell is one (benchmark, policy) cell of a sweep job's aggregate.
type SweepCell struct {
	Benchmark string `json:"benchmark"`
	Policy    string `json:"policy"`
	JobID     string `json:"job_id"`
	State     string `json:"state"`
	// Error carries the child's failure text for failed cells — each
	// failed cell is reported here exactly once.
	Error string `json:"error,omitempty"`
}

// SweepResult is a sweep job's aggregate: every cell exactly once, with
// per-cell job IDs so clients can fetch individual results and streams.
type SweepResult struct {
	Cells  []SweepCell `json:"cells"`
	Done   int         `json:"done"`
	Failed int         `json:"failed"`
}

// Job is one unit of supervised work. All mutable fields are guarded by
// mu; the supervisor is the only writer of state transitions.
type Job struct {
	// Immutable after creation.
	ID   string
	Spec JobSpec
	seq  uint64 // FIFO tie-break within a priority band

	mu        sync.Mutex
	state     JobState
	settledAt time.Time // when the job reached its terminal state (result-TTL eviction)
	failure   *Failure
	result    *sim.Result
	sweep     *SweepResult
	epoch     int // epoch of the last park, -1 before the first
	worker    int // worker running (or last to run) the job
	stream    *StreamBuf

	// ckpt is the framed checkpoint captured when the job last parked.
	// The stream is append-only and ends exactly at that checkpoint's
	// boundary while the job is parked or queued, so the pair is the
	// exact resume point: restore ckpt and keep appending.
	ckpt []byte

	// cancel tears down the current run attempt with a cause; non-nil
	// only while running.
	cancel context.CancelCauseFunc
	// startedAt is when the current attempt started (elastic preemption
	// ages running jobs with it).
	startedAt time.Time

	// Sweep linkage: parent aggregates its children; a child may have
	// several parents when dedup shares it.
	parents  []*Job
	children []*Job
	pending  int // children not yet done/failed/canceled (parents only)

	// done is closed on reaching a terminal state (done/failed/canceled).
	done chan struct{}
}

func newJob(spec JobSpec, seq uint64) *Job {
	return &Job{
		ID:     spec.ID(),
		Spec:   spec,
		seq:    seq,
		state:  StateQueued,
		epoch:  -1,
		stream: NewStreamBuf(),
		done:   make(chan struct{}),
	}
}

// Stream returns the job's telemetry stream.
func (j *Job) Stream() *StreamBuf { return j.stream }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the result and whether the job is done.
func (j *Job) Result() (*sim.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.state == StateDone
}

// terminal reports whether s is an end state. Callers hold j.mu.
func terminal(s JobState) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// finish moves the job to a terminal state and wakes waiters. Callers
// hold j.mu. Idempotent: a second terminal transition is ignored, so a
// late cancel cannot clobber a completed job.
func (j *Job) finish(s JobState) bool {
	if terminal(j.state) {
		return false
	}
	j.state = s
	j.settledAt = time.Now()
	j.stream.Close()
	close(j.done)
	return true
}

// Status is the wire snapshot GET /jobs/{id} returns.
type Status struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	State    JobState `json:"state"`
	Priority int      `json:"priority"`
	// Epoch is the epoch the job last parked at (-1 until it parks); it
	// moves only at a park. StreamLen is the progress measure.
	Epoch     int      `json:"epoch"`
	StreamLen int      `json:"stream_len"`
	Failure   *Failure `json:"failure,omitempty"`
	// Children lists a sweep's child job IDs in grid order.
	Children []string `json:"children,omitempty"`
}

// Snapshot assembles the wire status.
func (j *Job) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:        j.ID,
		Kind:      j.Spec.canonical().Kind,
		State:     j.state,
		Priority:  j.Spec.Priority,
		Epoch:     j.epoch,
		StreamLen: j.stream.Len(),
		Failure:   j.failure,
	}
	for _, c := range j.children {
		st.Children = append(st.Children, c.ID)
	}
	return st
}
