// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) from the reproduction's own models: the static
// regulator characterisations (Figs. 1, 2, 5), the per-benchmark runs
// (Figs. 6, 7, 8, 12, 13, 14, 15) and the full policy sweep (Figs. 9, 10,
// 11, Table 2 and the Section 6.3 headline numbers).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"thermogater/internal/core"
	"thermogater/internal/pdn"
	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
	"thermogater/internal/vr"
	"thermogater/internal/workload"
)

// Options scales the experiments: the paper's full runs use the complete
// 3000ms regions of interest; tests and quick looks use shorter windows.
type Options struct {
	// DurationMS truncates each run when positive (0 = the benchmark's
	// full region of interest).
	DurationMS int
	// Seed drives all stochastic components.
	Seed uint64
	// Parallel bounds concurrent runs (0 = GOMAXPROCS).
	Parallel int
	// Telemetry, when non-nil, instruments every run: each simulation
	// feeds the shared registry's counters and span tree, and one "run"
	// record with the run's aggregates is emitted per (policy, benchmark)
	// cell alongside the per-epoch stream. The registry is concurrency-safe,
	// so parallel sweep workers share it directly.
	Telemetry *telemetry.Registry
	// Mutate, when non-nil, edits each cell's configuration after it is
	// built — the hook fault-injection campaigns use to arm schedules on
	// selected (policy, benchmark) cells. RunSweep calls it once per cell,
	// on the worker goroutine that then runs that cell, right before it.
	Mutate func(policy core.PolicyKind, bench workload.Profile, cfg *sim.Config)
}

// DefaultOptions runs the full-length evaluation.
func DefaultOptions() Options {
	return Options{Seed: 1}
}

// workers returns the effective parallelism.
func (o Options) workers() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// simConfig builds the run configuration for one (policy, benchmark) cell.
func (o Options) simConfig(policy core.PolicyKind, bench workload.Profile) sim.Config {
	cfg := sim.DefaultConfig(policy, bench)
	cfg.Seed = o.Seed
	if o.DurationMS > 0 {
		cfg.DurationMS = o.DurationMS
	}
	cfg.Telemetry = o.Telemetry
	if o.Mutate != nil {
		o.Mutate(policy, bench, &cfg)
	}
	return cfg
}

// BenchmarkOrder lists the suite in the order the paper's figures use.
func BenchmarkOrder() []string {
	var names []string
	for _, p := range workload.Suite() {
		names = append(names, p.Name)
	}
	return names
}

// runOne executes a single configured simulation under ctx, emitting the
// per-run aggregate record when the configuration carries a telemetry
// registry. A canceled ctx stops the run at its next epoch boundary with
// a *sim.CancelError.
func runOne(ctx context.Context, cfg sim.Config) (*sim.Result, error) {
	r, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	sp := cfg.Telemetry.StartSpan("run")
	res, err := r.RunContext(ctx)
	sp.End()
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry.Enabled() {
		rec := telemetry.NewRecord("run").
			Str("policy", res.Policy).
			Str("benchmark", res.Benchmark).
			Int("wall_ns", sp.Total().Nanoseconds()).
			Int("epochs", int64(res.Epochs)).
			Float("max_temp_c", res.MaxTempC).
			Float("gradient_c", res.MaxGradientC).
			Float("max_noise_pct", res.MaxNoisePct).
			Float("avg_ploss_w", res.AvgPlossW).
			Float("avg_eta", res.AvgEta).
			Float("emergency_frac", res.EmergencyFrac)
		if err := cfg.Telemetry.Emit(rec); err != nil {
			return nil, fmt.Errorf("experiments: telemetry sink: %w", err)
		}
	}
	return res, nil
}

// runCell runs one cell with panic containment: a panicking simulation
// surfaces as an error like any other failure.
func runCell(ctx context.Context, cfg sim.Config) (res *sim.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("experiments: run panicked: %v", p)
		}
	}()
	return runOne(ctx, cfg)
}

// RunError records one sweep cell that failed.
type RunError struct {
	Benchmark string
	Policy    string
	// Err is the run's error text.
	Err string
}

func (e RunError) String() string {
	return fmt.Sprintf("%s/%s: %s", e.Benchmark, e.Policy, e.Err)
}

// Sweep holds the results of the full benchmarks × policies evaluation,
// keyed by benchmark name then policy name.
type Sweep struct {
	Policies []core.PolicyKind
	Results  map[string]map[string]*sim.Result
	// Failures lists the cells that failed; the corresponding Results
	// cells are absent. Sorted by benchmark then policy for deterministic
	// reporting.
	Failures []RunError
}

// RunSweep is RunSweepContext with a background (never-canceled) context.
func RunSweep(policies []core.PolicyKind, opts Options) (*Sweep, error) {
	return RunSweepContext(context.Background(), policies, opts)
}

// RunSweepContext executes the given policies over the whole benchmark
// suite concurrently and collects the results. Every cell runs once: runs
// are deterministic per configuration, so a retry would fail the same
// way. A failed cell lands in Sweep.Failures while every other cell still
// completes; if any failed, RunSweepContext returns the partial sweep
// together with an error naming the failure count and the first failure.
// Once ctx is canceled no further cell starts and the running ones stop
// at their next epoch boundary; the canceled cells are neither results
// nor failures, and the error wraps ctx's cause. It returns a nil sweep
// only for invalid input.
func RunSweepContext(ctx context.Context, policies []core.PolicyKind, opts Options) (*Sweep, error) {
	if len(policies) == 0 {
		return nil, errors.New("experiments: no policies to sweep")
	}
	suite := workload.Suite()
	sw := &Sweep{Policies: policies, Results: make(map[string]map[string]*sim.Result)}
	for _, b := range suite {
		sw.Results[b.Name] = make(map[string]*sim.Result, len(policies))
	}

	type job struct {
		bench  workload.Profile
		policy core.PolicyKind
	}
	jobs := make(chan job)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < opts.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				res, err := runCell(ctx, opts.simConfig(j.policy, j.bench))
				mu.Lock()
				// A cell that errs once ctx is canceled was stopped, not
				// broken: it is left out of both maps.
				switch {
				case err == nil:
					sw.Results[j.bench.Name][j.policy.String()] = res
				case ctx.Err() == nil:
					sw.Failures = append(sw.Failures, RunError{
						Benchmark: j.bench.Name,
						Policy:    j.policy.String(),
						Err:       err.Error(),
					})
				}
				mu.Unlock()
			}
		}()
	}
dispatch:
	for _, b := range suite {
		for _, p := range policies {
			select {
			case jobs <- job{bench: b, policy: p}:
			case <-ctx.Done():
				break dispatch
			}
		}
	}
	close(jobs)
	wg.Wait()
	sort.Slice(sw.Failures, func(i, j int) bool {
		if sw.Failures[i].Benchmark != sw.Failures[j].Benchmark {
			return sw.Failures[i].Benchmark < sw.Failures[j].Benchmark
		}
		return sw.Failures[i].Policy < sw.Failures[j].Policy
	})
	if ctx.Err() != nil {
		return sw, fmt.Errorf("experiments: sweep interrupted: %w", context.Cause(ctx))
	}
	if len(sw.Failures) > 0 {
		return sw, fmt.Errorf("experiments: %d of %d cells failed; first: %s",
			len(sw.Failures), len(suite)*len(policies), sw.Failures[0])
	}
	return sw, nil
}

// Get returns one cell of the sweep.
func (s *Sweep) Get(bench string, policy core.PolicyKind) (*sim.Result, error) {
	m, ok := s.Results[bench]
	if !ok {
		return nil, fmt.Errorf("experiments: benchmark %q not in sweep", bench)
	}
	r, ok := m[policy.String()]
	if !ok {
		return nil, fmt.Errorf("experiments: policy %v not in sweep for %q", policy, bench)
	}
	return r, nil
}

// ldoConfig switches a run configuration to the POWER8-like LDO design
// point of Section 6.4: same calibrated efficiency curves, faster response.
func ldoConfig(cfg sim.Config) sim.Config {
	cfg.Design = vr.POWER8LDO()
	cfg.PDN = pdn.LDOConfig()
	return cfg
}
