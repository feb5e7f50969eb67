package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"thermogater/internal/core"
	"thermogater/internal/experiments"
	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
	"thermogater/internal/workload"
)

// sweepRun is one experiments.RunSweep call as seen from outside.
type sweepRun struct {
	sw    *experiments.Sweep
	wall  time.Duration
	cells []float64     // cell wall times in ms, for cells whose end was seen
	tail  time.Duration // last cell start until RunSweep returned
	// workers is how many goroutines ran cells.
	workers int
}

// runSweep times one sweep over the whole suite. Options.Mutate runs on
// the worker goroutine right before each cell, so the gap between two
// Mutate calls on one goroutine is the earlier cell's time; the last cell
// of each worker ends unseen and gives no sample.
func runSweep(policies []core.PolicyKind, seed uint64, reg *telemetry.Registry) (sweepRun, error) {
	var mu sync.Mutex
	starts := make(map[int64][]time.Time)
	var last time.Time
	opts := experiments.Options{
		DurationMS: sweepCellMS,
		Seed:       seed,
		Parallel:   conc,
		Telemetry:  reg,
		Mutate: func(core.PolicyKind, workload.Profile, *sim.Config) {
			now := time.Now()
			id := goid()
			mu.Lock()
			starts[id] = append(starts[id], now)
			last = now
			mu.Unlock()
		},
	}
	t0 := time.Now()
	sw, err := experiments.RunSweep(policies, opts)
	end := time.Now()
	if err != nil {
		return sweepRun{}, err
	}
	run := sweepRun{sw: sw, wall: end.Sub(t0), tail: end.Sub(last), workers: len(starts)}
	for _, ts := range starts {
		for i := 1; i < len(ts); i++ {
			run.cells = append(run.cells, ms(ts[i].Sub(ts[i-1])))
		}
	}
	return run, checkSweep(sw, policies)
}

// goid is the calling goroutine's ID, read from its stack header
// ("goroutine 42 [running]:").
func goid() int64 {
	var b [64]byte
	s := bytes.TrimPrefix(b[:runtime.Stack(b[:], false)], []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(string(s), 10, 64)
	return id
}

// checkSweep is the cheap check every timed sweep gets: every cell of the
// grid is present, labelled and of the right length.
func checkSweep(sw *experiments.Sweep, policies []core.PolicyKind) error {
	if len(sw.Failures) > 0 {
		return fmt.Errorf("sweep: %d failed cells, first %s", len(sw.Failures), sw.Failures[0])
	}
	for _, b := range suiteNames {
		for _, p := range policies {
			res, err := sw.Get(b, p)
			if err != nil {
				return err
			}
			if res.Policy != p.String() || res.Benchmark != b || res.Epochs != sweepCellMS-defaultWarmupEpochs {
				return fmt.Errorf("sweep cell %s/%s: result is %s/%s with %d epochs", b, p, res.Policy, res.Benchmark, res.Epochs)
			}
		}
	}
	return nil
}

// sweepSample is the fixed sample of cells compared against direct runs
// and replayed in the traced mode: one cell per policy, spread over the
// benchmarks.
func sweepSample() [][2]string {
	var cells [][2]string
	for i, p := range allPolicies {
		cells = append(cells, [2]string{p, suiteNames[(3*i)%len(suiteNames)]})
	}
	return cells
}

// runCells captures the "run" record experiments emits per cell when a
// registry is attached, and drops the per-epoch records. The registry
// serializes Emit, and RunSweep returns after its workers end, so walls
// needs no lock of its own.
type runCells struct {
	walls []float64 // ms
}

func (c *runCells) Emit(rec *telemetry.Record) error {
	if rec.Name != "run" {
		return nil
	}
	v, ok := rec.Get("wall_ns")
	ns, isInt := v.(int64)
	if !ok || !isInt {
		return fmt.Errorf("run record without wall_ns")
	}
	c.walls = append(c.walls, float64(ns)/1e6)
	return nil
}

func (c *runCells) Flush() error { return nil }
