package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"thermogater/internal/core"
	"thermogater/internal/experiments"
	"thermogater/internal/serve"
	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
)

// setupRounds is how often a run sets up; setup_s is the median round.
// Each round builds a fresh service (or none, for the sweep) and warms it
// on its own seeds, so no round finds what an earlier one cached.
const setupRounds = 3

// Per-workload sizes: warm-up jobs per setup round, timed jobs compared
// against a direct run, and the replayed sample of the traced mode
// (practical, other).
var (
	warmJobs   = map[string]int{svcShort: 100, svcLong: 10}
	checkJobs  = map[string]int{svcShort: 8, svcLong: 4}
	replayPrac = map[string]int{svcShort: 6, svcLong: 3}
	replayRest = map[string]int{svcShort: 4, svcLong: 5}
)

// residualTolerance bounds the accounting identity: the median of the
// replayed jobs' residuals (service latency minus the replayed layers:
// queue wait, streaming, checkpoints and the second job sharing the
// CPUs) must stay within this share of their median latency.
const residualTolerance = 0.5

// outcome is one run's measurements and verdicts.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string // why the run is not correct
	notes     []string // context for the human-readable summary
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func run(name string, seed uint64, window time.Duration, trace bool) (*outcome, error) {
	// The clients stand in for tgserve's callers, which are processes of
	// their own: one processor beyond the conc workers keeps them from
	// queueing in Go's scheduler behind two CPU-bound simulations.
	runtime.GOMAXPROCS(conc + 1)
	switch name {
	case svcShort, svcLong:
		return runService(name, seed, window, trace)
	case sweepGrid:
		return runSweepGrid(seed, window, trace)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// liveHeap is the live heap in bytes. The second collection empties the
// sync.Pool caches the first one only moved aside, so pooled buffers do
// not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// compareDirect checks a result against a direct sim.New(cfg).Run() of
// the same configuration, byte for byte in its JSON form.
func compareDirect(cfg sim.Config, got []byte) error {
	r, err := sim.New(cfg)
	if err != nil {
		return err
	}
	res, err := r.Run()
	if err != nil {
		return err
	}
	want, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		return fmt.Errorf("%v/%s seed %d: result differs from a direct run", cfg.Policy, cfg.Benchmark.Name, cfg.Seed)
	}
	return nil
}

func runService(name string, seed uint64, window time.Duration, trace bool) (*outcome, error) {
	var env *svcEnv
	closeEnv := func() error {
		err := env.close()
		env = nil
		return err
	}
	defer func() {
		if env != nil {
			// Only error paths get here; their error is the one to report.
			_ = closeEnv()
		}
	}()
	var setups []float64
	for k := 0; k < setupRounds; k++ {
		if env != nil {
			if err := closeEnv(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		e, err := startService()
		if err != nil {
			return nil, err
		}
		env = e
		warm, err := newWarmGen(name, seed, k)
		if err != nil {
			return nil, err
		}
		st, err := env.closedLoop(warm, warmJobs[name], time.Now().Add(time.Hour), 0)
		if err != nil {
			return nil, err
		}
		for _, r := range st.records {
			if r.err != nil {
				return nil, fmt.Errorf("setup: %w", r.err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	heap0 := liveHeap()
	stats0 := env.sup.Stats()
	gen, err := newSpecGen(name, seed)
	if err != nil {
		return nil, err
	}
	loop, err := env.closedLoop(gen, 0, time.Now().Add(window), checkJobs[name])
	if err != nil {
		return nil, err
	}
	// The window's jobs stay in the supervisor's table until their result
	// TTL; the heap they hold is measured before the drain.
	heap1 := liveHeap()
	stats1 := env.sup.Stats()
	dials := env.dials.Load()
	if err := closeEnv(); err != nil {
		return nil, err
	}

	o := newOutcome()
	if dials > conc {
		o.problem("the client opened %d connections, more than %d", dials, conc)
	}
	var ok []jobRecord
	var lat []float64
	var simMS float64
	for _, r := range loop.records {
		o.attempted++
		if r.err == nil && r.body != nil {
			cfg, err := directConfig(r.spec)
			if err == nil {
				err = compareDirect(cfg, r.body)
			}
			r.err = err
		}
		if r.err != nil {
			o.failed++
			if o.failed <= 3 {
				o.note("failed: %v", r.err)
			}
			continue
		}
		ok = append(ok, r)
		lat = append(lat, ms(r.total))
		simMS += float64(r.spec.DurationMS)
	}
	if len(ok) == 0 {
		return nil, fmt.Errorf("%s: no job completed", name)
	}
	v := o.values
	v["setup_s"] = median(setups)
	if err := windowMetrics(loop.wall.Seconds(), len(ok), simMS, lat, v); err != nil {
		return nil, err
	}
	v["retained_kb_per_job"] = (float64(heap1) - float64(heap0)) / 1024 / float64(len(loop.records))
	o.note("%d jobs in %.3f s, %d compared with direct runs, %d client connections",
		len(ok), loop.wall.Seconds(), checkJobs[name], dials)
	if trace {
		if err := serviceLayers(o, name, ok, stats0, stats1); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// serviceLayers adds the traced mode's metrics for a service workload and
// checks the accounting identity on the replayed jobs.
func serviceLayers(o *outcome, name string, ok []jobRecord, s0, s1 serve.Stats) error {
	v := o.values
	var submit, wait, result, kb []float64
	for _, r := range ok {
		submit = append(submit, ms(r.submit))
		wait = append(wait, ms(r.wait))
		result = append(result, ms(r.result))
		kb = append(kb, float64(r.bytes)/1024)
	}
	v["serve.submit_ms"] = median(submit)
	v["serve.wait_ms"] = median(wait)
	v["serve.result_ms"] = median(result)
	v["serve.stream_kb_per_job"] = mean(kb)
	n := float64(s1.Submitted - s0.Submitted)
	v["serve.shed_ratio"] = float64(s1.Shed-s0.Shed) / n
	v["serve.dedup_ratio"] = float64(s1.Deduped-s0.Deduped) / n
	v["serve.retry_ratio"] = float64(s1.Retries-s0.Retries) / n

	sample := replaySample(ok, replayPrac[name], replayRest[name])
	var cfgs []sim.Config
	for _, r := range sample {
		cfg, err := directConfig(r.spec)
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	reps, err := replayAll(cfgs)
	if err != nil {
		return err
	}
	var residual, latency []float64
	for i, r := range sample {
		rep := reps[i]
		layers := ms(r.submit) + rep.newMS + rep.preludeMS + rep.epochMS + float64(rep.epochs)*rep.emitUS/1e3 + ms(r.result)
		residual = append(residual, ms(r.total)-layers)
		latency = append(latency, ms(r.total))
	}
	simLayers(cfgs, reps, v)
	v["serve.residual_ms"] = median(residual)
	var us []float64
	for _, r := range reps {
		us = append(us, r.emitUS)
	}
	v["telemetry.emit_us_per_epoch"] = median(us)
	v["sweep.cell_p50_ms"], v["sweep.cell_max_ms"], v["sweep.tail_s"] = 0, 0, 0

	lim := residualTolerance * median(latency)
	o.note("accounting: %d replayed jobs, median latency %.3f ms, median residual %.3f ms (tolerance ±%.3f ms)",
		len(sample), median(latency), v["serve.residual_ms"], lim)
	if r := v["serve.residual_ms"]; r > lim || r < -lim {
		o.problem("accounting identity: median residual %.3f ms exceeds ±%.3f ms", r, lim)
	}
	return nil
}

func runSweepGrid(seed uint64, window time.Duration, trace bool) (*outcome, error) {
	policies := experiments.SweepPolicies()
	grid := len(policies) * len(suiteNames)
	var setups []float64
	for k := 0; k < setupRounds; k++ {
		runtime.GC()
		t0 := time.Now()
		if _, err := runSweep([]core.PolicyKind{core.PracVT, core.AllOn}, warmSeedBase*uint64(k+1)+1, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	o := newOutcome()
	seeds := newSweepSeeds(seed)
	var cells, tails []float64
	var last sweepRun
	var firstSeed, lastSeed uint64
	ran := 0
	start := time.Now()
	for deadline := start.Add(window); ran == 0 || time.Now().Before(deadline); ran++ {
		s := seeds.next()
		if ran == 0 {
			firstSeed = s
		}
		last = sweepRun{} // let the previous grid go before the next one runs
		run, err := runSweep(policies, s, nil)
		if err != nil {
			return nil, err
		}
		if run.workers > conc {
			o.problem("RunSweep ran cells on %d goroutines, more than %d", run.workers, conc)
		}
		last, lastSeed = run, s
		cells = append(cells, run.cells...)
		tails = append(tails, run.tail.Seconds())
	}
	wall := time.Since(start).Seconds()
	held := liveHeap()

	o.attempted = ran * grid
	for _, c := range sweepSample() {
		cfg, err := cellConfig(c[0], c[1], lastSeed, sweepCellMS)
		if err != nil {
			return nil, err
		}
		p, _ := core.ParsePolicy(c[0])
		res, err := last.sw.Get(c[1], p)
		if err == nil {
			var got []byte
			if got, err = json.Marshal(res); err == nil {
				err = compareDirect(cfg, got)
			}
		}
		if err != nil {
			o.failed++
			o.note("failed: %v", err)
		}
	}

	// The last sweep's results are what the window leaves retained.
	last = sweepRun{}
	retained := float64(held) - float64(liveHeap())

	v := o.values
	v["setup_s"] = median(setups)
	if err := windowMetrics(wall, o.attempted, float64(o.attempted*sweepCellMS), cells, v); err != nil {
		return nil, err
	}
	v["retained_kb_per_job"] = retained / 1024 / float64(grid)
	o.note("%d sweeps of %d cells in %.3f s, %d compared with direct runs", ran, grid, wall, len(sweepSample()))
	if trace {
		if err := sweepLayers(o, policies, firstSeed, tails); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sweepLayers adds the traced mode's metrics for sweep-grid: one sweep
// with a registry attached for the per-cell "run" records, and the
// replayed sample cells for the sim layers. The sweep streams no
// telemetry and bypasses the service, so those layers read 0.
func sweepLayers(o *outcome, policies []core.PolicyKind, seed uint64, tails []float64) error {
	reg := telemetry.NewRegistry()
	walls := &runCells{}
	reg.AddSink(walls)
	if _, err := runSweep(policies, seed, reg); err != nil {
		return err
	}
	v := o.values
	v["sweep.cell_p50_ms"] = median(walls.walls)
	v["sweep.cell_max_ms"] = sorted(walls.walls)[len(walls.walls)-1]
	v["sweep.tail_s"] = median(tails)

	var cfgs []sim.Config
	for _, c := range sweepSample() {
		cfg, err := cellConfig(c[0], c[1], seed, sweepCellMS)
		if err != nil {
			return err
		}
		cfgs = append(cfgs, cfg)
	}
	reps, err := replayAll(cfgs)
	if err != nil {
		return err
	}
	simLayers(cfgs, reps, v)
	for _, m := range []string{"serve.submit_ms", "serve.wait_ms", "serve.result_ms", "serve.stream_kb_per_job",
		"serve.shed_ratio", "serve.dedup_ratio", "serve.retry_ratio", "serve.residual_ms", "telemetry.emit_us_per_epoch"} {
		v[m] = 0
	}
	return nil
}
