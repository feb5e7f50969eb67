package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
)

// ErrDraining reports a submission against a supervisor that is shutting
// down; the HTTP layer maps it to 503.
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// ErrUnknownJob reports a lookup for an ID the supervisor has never seen
// (or has evicted from the result cache).
var ErrUnknownJob = errors.New("serve: unknown job")

// Cancellation causes, distinguishable via errors.Is on the job's
// CancelError chain.
var (
	// causePreempt parks a long-running job so queued work gets a turn;
	// the job resumes from its checkpoint on any free worker.
	causePreempt = errors.New("serve: preempted")
	// causeDrain parks a job for spooling during graceful shutdown.
	causeDrain = errors.New("serve: draining")
	// causeClientCancel terminates a job at the client's request.
	causeClientCancel = errors.New("serve: canceled by client")
)

// crashError is a recovered panic. The job fails with it like with any
// other error: the run is a pure function of its spec, so the same panic
// would come back on a second try.
type crashError struct{ msg string }

func (e *crashError) Error() string { return "serve: attempt panicked: " + e.msg }

// Config tunes the supervisor. The zero value is usable: every field
// falls back to the default documented on it.
type Config struct {
	// Workers is the worker-goroutine count (default 2).
	Workers int
	// QueueLimit bounds the intake queue; submissions beyond it are shed
	// with ErrQueueFull (default 256).
	QueueLimit int
	// PreemptAfter parks a running job once it has run this long while
	// other work is queued; 0 disables elastic preemption.
	PreemptAfter time.Duration
	// SpoolDir persists parked/queued jobs across restarts; "" disables
	// spooling (drain then abandons unfinished jobs).
	SpoolDir string
	// ResultTTL evicts terminal jobs — results, failure records and
	// telemetry streams — from the job table this long after they settle,
	// bounding memory over the process lifetime. An identical spec
	// resubmitted after eviction runs fresh (default 15m; negative
	// disables eviction).
	ResultTTL time.Duration
	// FrozenClock pins every job's telemetry clock to the Unix epoch so
	// streams are byte-deterministic — the mode the chaos suite runs the
	// service in.
	FrozenClock bool

	// panicOn, when set, is asked before each telemetry record a job
	// emits; true panics the run there, mid-stream, so the panic unwinds
	// through the real recovery path. Package tests set it to fail jobs
	// deterministically; it is nil in production.
	panicOn func(*Job) bool
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueLimit < 1 {
		c.QueueLimit = 256
	}
	if c.ResultTTL == 0 {
		c.ResultTTL = 15 * time.Minute
	}
	return c
}

// Stats is the supervisor's operational snapshot (GET /stats).
type Stats struct {
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	Submitted int64 `json:"submitted"`
	Deduped   int64 `json:"deduped"`
	Shed      int64 `json:"shed"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Preempted int64 `json:"preempted"`
	Crashes   int64 `json:"crashes"`
	// Retries is always 0: a failed job stays failed, because a rerun of
	// a deterministic job fails the same way. The field stays because
	// perfbench's serve.retry_ratio reads it.
	Retries  int64 `json:"retries"`
	Evicted  int64 `json:"evicted"`
	Draining bool  `json:"draining"`
	// ThetaHits and ThetaMisses count the practical jobs whose θ fit came
	// from the supervisor's sim.ThetaMemo and those that profiled afresh.
	ThetaHits   int64 `json:"theta_hits"`
	ThetaMisses int64 `json:"theta_misses"`
}

// Supervisor owns the job table, the queue and the worker pool. One
// instance serves the whole process; NewSupervisor starts the workers
// immediately and Drain stops them.
type Supervisor struct {
	cfg Config
	q   *queue

	mu   sync.Mutex
	jobs map[string]*Job

	// seq allocates the queue's FIFO tie-break numbers. Atomic rather
	// than s.mu-guarded: requeue bumps it while holding j.mu, and the
	// lock order everywhere else is s.mu → j.mu (Stats, preemptMonitor,
	// Drain, Submit), so taking s.mu there would be an ABBA deadlock.
	seq atomic.Uint64

	stop     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool

	// theta shares θ-profiling fits between every sim job this supervisor
	// runs; a hit is byte-identical to a fresh fit.
	theta *sim.ThetaMemo

	submitted, deduped, shed, completed atomic.Int64
	failed, canceled, evicted           atomic.Int64
	preempted, crashes                  atomic.Int64
}

// NewSupervisor builds the supervisor, reloads any spooled jobs from
// cfg.SpoolDir, and starts the worker pool.
func NewSupervisor(cfg Config) (*Supervisor, error) {
	cfg = cfg.withDefaults()
	s := &Supervisor{
		cfg:   cfg,
		q:     newQueue(cfg.QueueLimit),
		jobs:  make(map[string]*Job),
		stop:  make(chan struct{}),
		theta: sim.NewThetaMemo(),
	}
	if err := s.loadSpool(); err != nil {
		return nil, err
	}
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker(w)
	}
	if cfg.PreemptAfter > 0 {
		s.wg.Add(1)
		go s.preemptMonitor()
	}
	if cfg.ResultTTL > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return s, nil
}

// Submit validates, dedups and enqueues a job, returning the job and
// whether this submission created it (false = dedup hit on a live or
// completed identical job). Sweep jobs fan out into child sim jobs that
// each go through the queue individually; the parent occupies no worker.
func (s *Supervisor) Submit(spec JobSpec) (*Job, bool, error) {
	if s.draining.Load() {
		return nil, false, ErrDraining
	}
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	s.submitted.Add(1)
	id := spec.ID()

	s.mu.Lock()
	if old, ok := s.jobs[id]; ok {
		old.mu.Lock()
		st := old.state
		old.mu.Unlock()
		if st != StateFailed && st != StateCanceled {
			s.mu.Unlock()
			s.deduped.Add(1)
			return old, false, nil
		}
		// Failed and canceled jobs are tombstones, not cached results:
		// resubmitting the spec replaces them with a fresh run instead of
		// returning the dead job forever.
	}
	j := newJob(spec, s.seq.Add(1))
	s.jobs[id] = j
	s.mu.Unlock()

	if spec.canonical().Kind == KindSweep {
		return s.submitSweep(j)
	}
	if err := s.q.Push(j, false); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		if errors.Is(err, ErrQueueFull) {
			s.shed.Add(1)
		}
		return nil, false, err
	}
	return j, true, nil
}

// submitSweep fans a sweep out into child sim jobs. Children dedup
// against existing jobs (including other sweeps' children and directly
// submitted sims); cells the cache already completed cost nothing. The
// whole fan-out is admitted or shed atomically enough for safety: a
// mid-fan-out queue-full sheds the parent and every child this sweep
// created that no one else references.
func (s *Supervisor) submitSweep(parent *Job) (*Job, bool, error) {
	specs := parent.Spec.children()
	// The parent holds one pending slot for the duration of the fan-out
	// so fast-settling children cannot drive pending to zero — and
	// trigger aggregation over a partial grid — while siblings are still
	// being admitted. The hold is released after the fan-out; exactly one
	// decrement observes pending hit zero, so the final aggregation runs
	// once, from either the release below or a later jobSettled.
	parent.mu.Lock()
	parent.pending = 1
	parent.mu.Unlock()
	var created []*Job
	admit := func() error {
		for _, cs := range specs {
			id := cs.ID()
			s.mu.Lock()
			child, ok := s.jobs[id]
			if ok {
				child.mu.Lock()
				// Failed/canceled children are tombstones: the new sweep
				// runs the cell fresh instead of inheriting a dead job.
				if child.state == StateFailed || child.state == StateCanceled {
					ok = false
				}
				child.mu.Unlock()
			}
			if !ok {
				child = newJob(cs, s.seq.Add(1))
				s.jobs[id] = child
				created = append(created, child)
			}
			// Back-link and pending++ must be atomic under child.mu: if
			// the child settles concurrently, jobSettled either sees the
			// parent and finds the matching increment, or sees neither. A
			// child that is already terminal is counted as settled by not
			// incrementing — back-linking it would earn a decrement that
			// was never paid for.
			parent.mu.Lock()
			//sync:ordered fan-out locks parent.mu before child.mu; the parent/child hierarchy is acyclic
			child.mu.Lock()
			if !terminal(child.state) {
				child.parents = append(child.parents, parent)
				parent.pending++
			}
			parent.children = append(parent.children, child)
			child.mu.Unlock()
			parent.mu.Unlock()
			s.mu.Unlock()
			if !ok {
				if err := s.q.Push(child, false); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := admit(); err != nil {
		// The fan-out hold is deliberately never released on this path:
		// pending stays >= 1, so settling children that still back-link
		// the dead parent can never trigger its aggregation.
		s.mu.Lock()
		delete(s.jobs, parent.ID)
		for _, c := range created {
			c.mu.Lock()
			dead := c.state == StateQueued && len(c.parents) == 1
			c.mu.Unlock()
			if dead {
				//sync:owned never-admitted children of a dead fan-out must not notify; the parent's aggregation hold is deliberate
				c.finishLocked(StateCanceled)
				delete(s.jobs, c.ID)
			}
		}
		s.mu.Unlock()
		if errors.Is(err, ErrQueueFull) {
			s.shed.Add(1)
		}
		return nil, false, err
	}
	parent.mu.Lock()
	if !terminal(parent.state) {
		// Guarded: a cancel that landed mid-fan-out must not be clobbered
		// back to running (finish would then pass its terminal check and
		// close done a second time).
		parent.state = StateRunning
	}
	parent.pending-- // release the fan-out hold
	ready := parent.pending == 0 && !terminal(parent.state)
	parent.mu.Unlock()
	if ready {
		s.aggregateSweep(parent)
	}
	return parent, true, nil
}

// finishLocked is Job.finish behind the job's own lock.
func (j *Job) finishLocked(st JobState) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finish(st)
}

// Get looks a job up by ID.
func (s *Supervisor) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, nil
	}
	return nil, ErrUnknownJob
}

// Cancel terminates a job at the client's request: queued and parked
// jobs finish immediately, running jobs are cancelled at the next epoch
// boundary. Sweep parents cancel every child they solely own.
func (s *Supervisor) Cancel(id string) error {
	j, err := s.Get(id)
	if err != nil {
		return err
	}
	s.cancelJob(j, causeClientCancel)
	return nil
}

func (s *Supervisor) cancelJob(j *Job, cause error) {
	j.mu.Lock()
	var kids []*Job
	settled := false
	switch j.state {
	case StateRunning:
		if j.cancel != nil {
			j.cancel(cause) // the worker finishes the transition
		} else {
			// A sweep parent: terminal once its owned children are.
			kids = append(kids, j.children...)
		}
	case StateQueued, StateParked:
		s.canceled.Add(1) // before finish closes Done, as in runJob
		settled = j.finish(StateCanceled)
	}
	j.mu.Unlock()
	if settled {
		// A queued/parked job has no worker to run its settlement:
		// notify sweep parents (the pending decrement) and drop the
		// spool entry here, mirroring runJob's cancel path.
		s.jobSettled(j)
	}
	for _, c := range kids {
		c.mu.Lock()
		sole := len(c.parents) == 1
		c.mu.Unlock()
		if sole {
			s.cancelJob(c, cause)
		}
	}
}

// Preempt parks a running job now (the elastic monitor's trigger, also
// exposed for the chaos suite). The job checkpoints at the next epoch
// boundary and requeues.
func (s *Supervisor) Preempt(id string) error {
	j, err := s.Get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateRunning && j.cancel != nil {
		j.cancel(causePreempt)
	}
	return nil
}

// Stats snapshots the operational counters.
func (s *Supervisor) Stats() Stats {
	s.mu.Lock()
	running := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.cancel != nil {
			running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	thetaHits, thetaMisses := s.theta.Stats()
	return Stats{
		Queued:    s.q.Len(),
		Running:   running,
		Submitted: s.submitted.Load(),
		Deduped:   s.deduped.Load(),
		Shed:      s.shed.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Canceled:  s.canceled.Load(),
		Preempted: s.preempted.Load(),
		Crashes:   s.crashes.Load(),
		Evicted:   s.evicted.Load(),
		Draining:  s.draining.Load(),

		ThetaHits:   thetaHits,
		ThetaMisses: thetaMisses,
	}
}

// janitor periodically evicts expired terminal jobs so the job table —
// and with it every retained result and telemetry stream — stays bounded
// no matter how long the process runs.
func (s *Supervisor) janitor() {
	defer s.wg.Done()
	period := s.cfg.ResultTTL / 4
	if period < time.Second {
		period = time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.evictExpired(time.Now())
		}
	}
}

// evictExpired drops terminal jobs that settled more than ResultTTL
// before now from the job table, returning the eviction count. Sweep
// aggregation is unaffected: parents hold their children by pointer, not
// through the table. An evicted ID reads as ErrUnknownJob and an
// identical resubmission runs fresh.
func (s *Supervisor) evictExpired(now time.Time) int {
	if s.cfg.ResultTTL <= 0 {
		return 0
	}
	n := 0
	s.mu.Lock()
	for id, j := range s.jobs {
		j.mu.Lock()
		dead := terminal(j.state) && !j.settledAt.IsZero() &&
			now.Sub(j.settledAt) >= s.cfg.ResultTTL
		j.mu.Unlock()
		if dead {
			delete(s.jobs, id)
			n++
		}
	}
	s.mu.Unlock()
	if n > 0 {
		s.evicted.Add(int64(n))
	}
	return n
}

// worker is one supervised execution loop. Panics inside a job are
// recovered by attempt; the loop itself only does state bookkeeping.
func (s *Supervisor) worker(id int) {
	defer s.wg.Done()
	for {
		j := s.q.Pop(s.stop)
		if j == nil {
			return
		}
		s.runJob(id, j)
	}
}

// runJob runs a job once and settles the outcome: success, park
// (preempt/drain), client cancel, or failure. A failed job stays failed:
// the run is a pure function of its spec and its resume point, so a
// second try would fail the same way.
func (s *Supervisor) runJob(worker int, j *Job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.state = StateRunning
	j.cancel = cancel
	j.worker = worker
	j.startedAt = time.Now()
	j.mu.Unlock()
	defer cancel(nil)

	res, err := s.attempt(j, ctx)
	ce := asCancel(err)
	var ckpt []byte
	if ce != nil && ce.Checkpoint != nil && !errors.Is(ce.Cause, causeClientCancel) {
		// A park that cannot frame its resume point fails the job: gob
		// into memory fails only deterministically.
		var eerr error
		if ckpt, eerr = encodeCheckpoint(ce.Checkpoint); eerr != nil {
			ce, err = nil, eerr
		}
	}

	// Each settling branch counts the job before finish closes Done, so a
	// caller woken by Done reads Stats that already include it.
	j.mu.Lock()
	j.cancel = nil
	switch {
	case err == nil:
		j.result = res
		s.completed.Add(1)
		j.finish(StateDone)
		j.mu.Unlock()

	case ce != nil && errors.Is(ce.Cause, causeClientCancel):
		s.canceled.Add(1)
		j.finish(StateCanceled)
		j.mu.Unlock()

	case ce != nil:
		if ckpt != nil {
			// The stream holds records exactly through the stopping epoch,
			// so it already ends at the checkpoint's boundary.
			j.ckpt, j.epoch = ckpt, ce.Epoch
		}
		j.state = StateParked
		j.mu.Unlock()
		// Drain spools parked jobs; a preempted one queues again.
		if !errors.Is(ce.Cause, causeDrain) {
			s.preempted.Add(1)
			s.requeue(j)
		}
		return

	default:
		var crash *crashError
		panicked := errors.As(err, &crash)
		j.failure = &Failure{Error: err.Error(), Panicked: panicked}
		if panicked {
			s.crashes.Add(1)
		}
		s.failed.Add(1)
		j.finish(StateFailed)
		j.mu.Unlock()
	}
	s.jobSettled(j)
}

// requeue re-admits a preempted job. It must not touch s.mu while holding
// j.mu — every other path takes them in the opposite order — which is why
// seq is an atomic counter.
func (s *Supervisor) requeue(j *Job) {
	j.mu.Lock()
	if j.state != StateParked {
		j.mu.Unlock()
		return
	}
	j.seq = s.seq.Add(1)
	j.state = StateQueued
	j.mu.Unlock()
	if err := s.q.Push(j, true); err != nil {
		// Queue closed mid-requeue: park again so drain spools the job.
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateParked
		}
		j.mu.Unlock()
	}
}

// encodeCheckpoint frames a checkpoint into bytes.
func encodeCheckpoint(cp *sim.Checkpoint) ([]byte, error) {
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func asCancel(err error) *sim.CancelError {
	var ce *sim.CancelError
	if errors.As(err, &ce) {
		return ce
	}
	return nil
}

// attempt runs the job once with panic containment, from its parked
// checkpoint if it has one. Every error it returns is a function of the
// spec and that checkpoint: invalid configuration, a checkpoint from
// another schema or config, or a failure inside the deterministic run.
func (s *Supervisor) attempt(j *Job, ctx context.Context) (res *sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &crashError{fmt.Sprint(p)}
		}
	}()

	cfg, err := j.Spec.simConfig()
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	if s.cfg.FrozenClock {
		epoch := time.Unix(0, 0)
		reg.SetClock(func() time.Time { return epoch })
	}
	reg.AddSink(&jobSink{sink: telemetry.NewJSONLSink(j.stream), job: j, panicOn: s.cfg.panicOn})
	cfg.Telemetry = reg
	cfg.ThetaMemo = s.theta

	r, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	j.mu.Lock()
	ckpt := j.ckpt
	j.mu.Unlock()
	if len(ckpt) > 0 {
		cp, err := sim.ReadCheckpoint(bytes.NewReader(ckpt))
		if err != nil {
			return nil, err
		}
		if err := r.Restore(cp); err != nil {
			return nil, err
		}
	}
	return r.RunContext(ctx)
}

// jobSink adapts the JSONL sink for service use: every record is flushed
// through to the stream immediately (live streaming). Config.panicOn
// fires here, inside the run, so a test panic unwinds through the real
// recovery path.
type jobSink struct {
	sink    *telemetry.JSONLSink
	job     *Job
	panicOn func(*Job) bool
}

func (s *jobSink) Emit(rec *telemetry.Record) error {
	if s.panicOn != nil && s.panicOn(s.job) {
		panic("serve: test panic mid-stream")
	}
	if err := s.sink.Emit(rec); err != nil {
		return err
	}
	return s.sink.Flush()
}

func (s *jobSink) Flush() error { return s.sink.Flush() }

// jobSettled runs after a job reaches a terminal state: sweep parents
// are notified and the spool entry (if any) is deleted.
func (s *Supervisor) jobSettled(j *Job) {
	s.removeSpool(j.ID)
	j.mu.Lock()
	parents := append([]*Job(nil), j.parents...)
	j.mu.Unlock()
	for _, p := range parents {
		p.mu.Lock()
		p.pending--
		ready := p.pending == 0 && !terminal(p.state)
		p.mu.Unlock()
		if ready {
			s.aggregateSweep(p)
		}
	}
}

// aggregateSweep assembles a sweep parent's result once every child is
// terminal: each cell exactly once, in grid order, with failed cells
// carrying their child's failure text (the service-side counterpart of
// experiments.Sweep.Failures — partial sweeps complete, failures are
// reported, nothing is double-counted).
func (s *Supervisor) aggregateSweep(p *Job) {
	p.mu.Lock()
	sw := &SweepResult{}
	for _, c := range p.children {
		//sync:ordered aggregation locks parent.mu before each child.mu, the same acyclic hierarchy fan-out uses
		c.mu.Lock()
		cell := SweepCell{
			Benchmark: c.Spec.Benchmark,
			Policy:    c.Spec.Policy,
			JobID:     c.ID,
			State:     string(c.state),
		}
		switch c.state {
		case StateDone:
			sw.Done++
		case StateFailed:
			sw.Failed++
			if c.failure != nil {
				cell.Error = c.failure.Error
			}
		}
		c.mu.Unlock()
		sw.Cells = append(sw.Cells, cell)
	}
	p.sweep = sw
	st := StateDone
	if sw.Done == 0 && len(sw.Cells) > 0 {
		st = StateFailed
		p.failure = &Failure{Error: "serve: every sweep cell failed"}
	}
	p.finish(st)
	p.mu.Unlock()
	if st == StateDone {
		s.completed.Add(1)
	} else {
		s.failed.Add(1)
	}
	s.removeSpool(p.ID)
}

// Sweep returns a sweep parent's aggregate, if the job is one and done.
func (j *Job) Sweep() (*SweepResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sweep, j.sweep != nil
}

// preemptMonitor implements elastic preemption: while work is queued, a
// job that has held a worker longer than PreemptAfter is parked (it
// checkpoints and requeues behind its priority peers) so small jobs are
// not starved by long sweeps.
func (s *Supervisor) preemptMonitor() {
	defer s.wg.Done()
	period := s.cfg.PreemptAfter / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		if s.q.Len() == 0 {
			continue
		}
		s.mu.Lock()
		victims := make([]*Job, 0, 4)
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.state == StateRunning && j.cancel != nil && time.Since(j.startedAt) > s.cfg.PreemptAfter {
				victims = append(victims, j)
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		for _, j := range victims {
			j.mu.Lock()
			if j.state == StateRunning && j.cancel != nil {
				j.cancel(causePreempt)
			}
			j.mu.Unlock()
		}
	}
}

// Drain is graceful shutdown: stop intake, stop the workers (in-flight
// jobs are cancelled with checkpoint capture), then spool every
// unfinished job to disk so a restarted service resumes it. Idempotent;
// returns once the pool is down and the spool is written.
func (s *Supervisor) Drain() error {
	if s.draining.Swap(true) {
		return nil
	}
	close(s.stop)
	// Cancel running jobs with the drain cause; their workers park them.
	s.mu.Lock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.cancel != nil {
			j.cancel(causeDrain)
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	s.wg.Wait()

	// Everything still queued or parked gets spooled.
	leftovers := s.q.Close()
	spooled := make(map[string]bool)
	var firstErr error
	spool := func(j *Job) {
		if spooled[j.ID] {
			return
		}
		spooled[j.ID] = true
		if err := s.writeSpool(j); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, j := range leftovers {
		spool(j)
	}
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		pending := j.state == StateQueued || j.state == StateParked ||
			(j.state == StateRunning && j.cancel == nil && !terminal(j.state))
		j.mu.Unlock()
		if pending {
			spool(j)
		}
	}
	return firstErr
}
