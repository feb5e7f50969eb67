package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
)

// BenchSchema tags BENCH_serve.json; Check rejects anything else.
const BenchSchema = "thermogater/bench-serve/v1"

// BenchReport is the committed service baseline: submit→done latency
// percentiles and throughput for a large burst of small concurrent jobs,
// plus the preemption byte-identity oracle for a resumable long job.
type BenchReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	QueueLimit int    `json:"queue_limit"`

	Small   SmallJobsBench `json:"small_jobs"`
	Preempt PreemptBench   `json:"preempt"`
}

// SmallJobsBench measures the service under a burst of small jobs, every
// one with a distinct seed so dedup cannot collapse the load.
type SmallJobsBench struct {
	Jobs       int     `json:"jobs"`
	DurationMS int     `json:"duration_ms"`
	Completed  int     `json:"completed"`
	Shed       int     `json:"shed"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	Throughput float64 `json:"throughput_jobs_per_sec"`
	WallS      float64 `json:"wall_s"`
}

// PreemptBench records the resumable-long-job oracle: a job preempted
// mid-flight (at least once) whose final telemetry stream must equal an
// uninterrupted run's, byte for byte.
type PreemptBench struct {
	DurationMS    int  `json:"duration_ms"`
	Preempts      int  `json:"preempts"`
	ByteIdentical bool `json:"byte_identical"`
	StreamBytes   int  `json:"stream_bytes"`
}

// BenchOptions sizes a bench run.
type BenchOptions struct {
	// Jobs is the small-burst size (default 1000).
	Jobs int
	// DurationMS is each small job's simulated length (default 10).
	DurationMS int
	// Workers is the supervisor pool size (default 2×GOMAXPROCS, min 4:
	// small jobs are short, so queue latency dominates and extra workers
	// keep the pipeline full).
	Workers int
	// LongDurationMS is the preemption oracle's run length (default 200).
	LongDurationMS int
}

func (o BenchOptions) withDefaults() BenchOptions {
	if o.Jobs <= 0 {
		o.Jobs = 1000
	}
	if o.DurationMS <= 0 {
		o.DurationMS = 10
	}
	if o.Workers <= 0 {
		o.Workers = 2 * runtime.GOMAXPROCS(0)
		if o.Workers < 4 {
			o.Workers = 4
		}
	}
	if o.LongDurationMS <= 0 {
		o.LongDurationMS = 200
	}
	return o
}

// RunBench drives a fresh in-process supervisor through the benchmark
// and assembles the report. log, when non-nil, receives progress lines.
func RunBench(opts BenchOptions, log io.Writer) (*BenchReport, error) {
	opts = opts.withDefaults()
	rep := &BenchReport{
		Schema:     BenchSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    opts.Workers,
		QueueLimit: opts.Jobs + 16,
	}
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format+"\n", args...)
		}
	}

	// --- Small-jobs burst ---------------------------------------------
	sup, err := NewSupervisor(Config{
		Workers:    opts.Workers,
		QueueLimit: opts.Jobs + 16,
	})
	if err != nil {
		return nil, err
	}
	logf("bench: submitting %d small jobs (%d ms each) to %d workers...", opts.Jobs, opts.DurationMS, opts.Workers)
	start := time.Now()
	submitAt := make(map[string]time.Time, opts.Jobs)
	jobs := make([]*Job, 0, opts.Jobs)
	shed := 0
	for i := 0; i < opts.Jobs; i++ {
		spec := JobSpec{
			Policy:       "all-on",
			Benchmark:    "fft",
			Seed:         uint64(i + 1), // distinct seeds: dedup cannot collapse the burst
			DurationMS:   opts.DurationMS,
			WarmupEpochs: 2,
		}
		j, _, err := sup.Submit(spec)
		if err != nil {
			shed++
			continue
		}
		submitAt[j.ID] = time.Now()
		jobs = append(jobs, j)
	}
	latencies := make([]float64, 0, len(jobs))
	completed := 0
	for _, j := range jobs {
		<-j.Done()
		if j.State() == StateDone {
			completed++
			latencies = append(latencies, float64(time.Since(submitAt[j.ID]).Microseconds())/1000)
		}
	}
	wall := time.Since(start)
	if err := sup.Drain(); err != nil {
		return nil, err
	}
	sort.Float64s(latencies)
	rep.Small = SmallJobsBench{
		Jobs:       opts.Jobs,
		DurationMS: opts.DurationMS,
		Completed:  completed,
		Shed:       shed,
		P50MS:      percentile(latencies, 0.50),
		P99MS:      percentile(latencies, 0.99),
		Throughput: float64(completed) / wall.Seconds(),
		WallS:      wall.Seconds(),
	}
	logf("bench: %d/%d done in %.1fs (p50 %.1fms, p99 %.1fms, %.1f jobs/s)",
		completed, opts.Jobs, wall.Seconds(), rep.Small.P50MS, rep.Small.P99MS, rep.Small.Throughput)

	// --- Preemption byte-identity oracle ------------------------------
	logf("bench: preemption oracle (%d ms run, frozen clock)...", opts.LongDurationMS)
	pre, err := benchPreempt(opts.LongDurationMS)
	if err != nil {
		return nil, err
	}
	rep.Preempt = *pre
	logf("bench: preempted %d time(s), byte_identical=%v (%d bytes)", pre.Preempts, pre.ByteIdentical, pre.StreamBytes)
	return rep, nil
}

// benchPreempt runs the resumable-long-job oracle: a reference run with
// no interruptions, then the same job through a supervisor that preempts
// it mid-flight; the final streams must match byte for byte.
func benchPreempt(durationMS int) (*PreemptBench, error) {
	spec := JobSpec{
		Policy:       "pracVT",
		Benchmark:    "lu_ncb",
		Seed:         7,
		DurationMS:   durationMS,
		WarmupEpochs: 5,
	}

	// Reference: same config, frozen clock, uninterrupted.
	cfg, err := spec.simConfig()
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	epoch := time.Unix(0, 0)
	reg.SetClock(func() time.Time { return epoch })
	var ref bytes.Buffer
	sink := telemetry.NewJSONLSink(&ref)
	reg.AddSink(sink)
	cfg.Telemetry = reg
	r, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := r.Run(); err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}

	// Service run: preempt mid-flight, let it resume, compare.
	sup, err := NewSupervisor(Config{
		Workers:         2,
		FrozenClock:     true,
		CheckpointEvery: 50,
	})
	if err != nil {
		return nil, err
	}
	j, _, err := sup.Submit(spec)
	if err != nil {
		return nil, err
	}
	preempts := 0
	for j.State() != StateDone && preempts < 2 {
		// Wait for some progress, then park it.
		deadline := time.Now().Add(30 * time.Second)
		for j.Stream().Len() < (preempts+1)*2048 && time.Now().Before(deadline) {
			if j.State() == StateDone {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if j.State() == StateDone {
			break
		}
		if err := sup.Preempt(j.ID); err != nil {
			return nil, err
		}
		preempts++
	}
	<-j.Done()
	if st := j.State(); st != StateDone {
		return nil, fmt.Errorf("serve: preemption oracle job ended %s", st)
	}
	got := j.Stream().Bytes()
	if err := sup.Drain(); err != nil {
		return nil, err
	}
	return &PreemptBench{
		DurationMS:    durationMS,
		Preempts:      preempts,
		ByteIdentical: bytes.Equal(got, ref.Bytes()),
		StreamBytes:   len(got),
	}, nil
}

// percentile returns the p-quantile of sorted xs (nearest-rank).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(p * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// WriteReport writes the report as indented JSON.
func WriteReport(w io.Writer, r *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadReport parses a committed report.
func ReadReport(rd io.Reader) (*BenchReport, error) {
	var r BenchReport
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("serve: parsing bench report: %w", err)
	}
	return &r, nil
}

// Check is the CI gate over a committed BENCH_serve.json: the report
// must be self-consistent and must witness the service's contract —
// ≥1000 small jobs all completed, sane latency ordering, and a
// preempted-then-resumed stream that matched the uninterrupted run byte
// for byte.
func Check(r *BenchReport) error {
	if r.Schema != BenchSchema {
		return fmt.Errorf("serve: bench schema %q, want %q", r.Schema, BenchSchema)
	}
	if r.Small.Jobs < 1000 {
		return fmt.Errorf("serve: bench ran %d small jobs, the gate needs >= 1000", r.Small.Jobs)
	}
	if r.Small.Completed != r.Small.Jobs-r.Small.Shed {
		return fmt.Errorf("serve: %d of %d admitted jobs completed — jobs were lost",
			r.Small.Completed, r.Small.Jobs-r.Small.Shed)
	}
	if r.Small.Completed < 1000 {
		return fmt.Errorf("serve: only %d jobs completed, the gate needs >= 1000", r.Small.Completed)
	}
	if !(r.Small.P50MS > 0) || !(r.Small.P99MS >= r.Small.P50MS) {
		return fmt.Errorf("serve: implausible latency percentiles p50=%.3f p99=%.3f", r.Small.P50MS, r.Small.P99MS)
	}
	if !(r.Small.Throughput > 0) {
		return fmt.Errorf("serve: non-positive throughput %.3f", r.Small.Throughput)
	}
	if r.Preempt.Preempts < 1 {
		return fmt.Errorf("serve: preemption oracle never preempted")
	}
	if !r.Preempt.ByteIdentical {
		return fmt.Errorf("serve: preempted run's stream was not byte-identical to the uninterrupted run")
	}
	if r.Preempt.StreamBytes <= 0 {
		return fmt.Errorf("serve: preemption oracle recorded an empty stream")
	}
	return nil
}
