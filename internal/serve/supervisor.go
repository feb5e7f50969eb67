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
	"thermogater/internal/thermal"
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
	// SpoolSkipped counts the spool entries NewSupervisor could not
	// re-admit: unreadable files and entries of another schema. They stay
	// on disk untouched.
	SpoolSkipped int64 `json:"spool_skipped"`
	// ThetaHits and ThetaMisses count the practical jobs whose θ fit came
	// from the supervisor's sim.ThetaMemo and those that profiled afresh.
	ThetaHits   int64 `json:"theta_hits"`
	ThetaMisses int64 `json:"theta_misses"`
	// SteadyHits and SteadyMisses count the steady-state solves in this
	// process, jobs' starting fields among them, that came from the
	// thermal package's memo and those that iterated. They are
	// process-wide: the memo is shared by everything in the process that
	// calls thermal.Model.SteadyState, not owned by the supervisor.
	SteadyHits   int64 `json:"steady_hits"`
	SteadyMisses int64 `json:"steady_misses"`
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
	// Drain, Submit), so taking s.mu there would be an ABBA deadlock —
	// one TestStatsDuringRetriesAndPreemptionNoDeadlock fails on.
	seq atomic.Uint64

	stop     chan struct{}
	wg       sync.WaitGroup
	draining atomic.Bool

	// theta shares θ-profiling fits between every sim job this supervisor
	// runs; a hit is byte-identical to a fresh fit.
	theta *sim.ThetaMemo

	submitted, deduped, shed, completed atomic.Int64
	failed, canceled, evicted           atomic.Int64
	preempted, crashes, spoolSkipped    atomic.Int64
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
// completed identical job).
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
// boundary.
func (s *Supervisor) Cancel(id string) error {
	j, err := s.Get(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	settled := false
	switch j.state {
	case StateRunning:
		j.cancel(causeClientCancel) // the worker finishes the transition
	case StateQueued, StateParked:
		s.canceled.Add(1) // before finish closes Done, as in runJob
		settled = j.finish(StateCanceled)
	}
	j.mu.Unlock()
	if settled {
		// A queued/parked job has no worker to settle it: drop its spool
		// entry here, as runJob does, so a restart does not run it again.
		s.removeSpool(j.ID)
	}
	return nil
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
	if j.state == StateRunning {
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
		if j.state == StateRunning {
			running++
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	thetaHits, thetaMisses := s.theta.Stats()
	steadyHits, steadyMisses := thermal.SteadyMemoStats()
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

		SpoolSkipped: s.spoolSkipped.Load(),

		ThetaHits:   thetaHits,
		ThetaMisses: thetaMisses,

		SteadyHits:   steadyHits,
		SteadyMisses: steadyMisses,
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
// before now from the job table, returning the eviction count. An
// evicted ID reads as ErrUnknownJob and an identical resubmission runs
// fresh.
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
	// A settled job's spool entry goes, so a restart does not run it again.
	s.removeSpool(j.ID)
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
	sink := &jobSink{stream: j.stream, job: j, panicOn: s.cfg.panicOn}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &crashError{fmt.Sprint(p)}
		}
		// Every exit hands the buffered tail over before runJob settles,
		// parks or spools the job, so the stream ends at the stopping
		// epoch just as it would with every record sent at once.
		sink.handOff()
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
	reg.AddSink(sink)
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

// streamChunk is about how many bytes of whole records a running job
// gathers before it hands them to its stream: some 37 epoch records, a
// few milliseconds of simulation. Handing records over one at a time
// wakes every stream reader, and its client, once per epoch.
const streamChunk = 16 << 10

// jobSink encodes a job's records as JSONL and hands them to the job's
// stream in chunks that end on a record boundary: the attempt's first
// record at once, so a follower sees the job start, then each time
// about streamChunk bytes have gathered, and the rest when the attempt
// ends (attempt calls handOff on every exit). A live reader therefore
// lags the run by at most one chunk, and the stored bytes are the ones
// a per-record hand-off would store. Config.panicOn fires here, inside
// the run, so a test panic unwinds through the real recovery path.
type jobSink struct {
	stream  *StreamBuf
	buf     []byte // whole records not yet in the stream
	started bool   // the attempt's first record has been handed over
	job     *Job
	panicOn func(*Job) bool
}

func (s *jobSink) Emit(rec *telemetry.Record) error {
	if s.panicOn != nil && s.panicOn(s.job) {
		panic("serve: test panic mid-stream")
	}
	if s.buf == nil {
		s.buf = make([]byte, 0, streamChunk+streamChunk/4)
	}
	s.buf = telemetry.AppendJSONL(s.buf, rec)
	if !s.started || len(s.buf) >= streamChunk {
		s.started = true
		s.handOff()
	}
	return nil
}

func (s *jobSink) Flush() error {
	s.handOff()
	return nil
}

// handOff appends the gathered records to the stream.
func (s *jobSink) handOff() {
	if len(s.buf) > 0 {
		//lint:ignore errsink StreamBuf.Write cannot fail
		s.stream.Write(s.buf)
		s.buf = s.buf[:0]
	}
}

// preemptMonitor implements elastic preemption: while work is queued, a
// job that has held a worker longer than PreemptAfter is parked (it
// checkpoints and requeues behind its priority peers) so small jobs are
// not starved by long ones.
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
			if j.state == StateRunning && time.Since(j.startedAt) > s.cfg.PreemptAfter {
				victims = append(victims, j)
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		for _, j := range victims {
			j.mu.Lock()
			if j.state == StateRunning {
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
		if j.state == StateRunning {
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
		pending := j.state == StateQueued || j.state == StateParked
		j.mu.Unlock()
		if pending {
			spool(j)
		}
	}
	return firstErr
}
