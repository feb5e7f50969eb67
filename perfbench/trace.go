package main

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"thermogater/internal/core"
	"thermogater/internal/serve"
	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
	"thermogater/internal/workload"
)

// directConfig is the engine configuration tgserve builds for a generated
// spec at its shipped defaults (SimWorkers 0, no telemetry, no faults).
func directConfig(spec serve.JobSpec) (sim.Config, error) {
	return cellConfig(spec.Policy, spec.Benchmark, spec.Seed, spec.DurationMS)
}

// cellConfig is the configuration of one run: what experiments.RunSweep
// builds for a cell, and what tgserve builds for a sim job.
func cellConfig(policy, bench string, seed uint64, durationMS int) (sim.Config, error) {
	p, err := core.ParsePolicy(policy)
	if err != nil {
		return sim.Config{}, err
	}
	prof, err := workload.ByName(bench)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig(p, prof)
	cfg.Seed = seed
	cfg.DurationMS = durationMS
	return cfg, nil
}

// replayRounds is how often each variant of a replayed spec runs; the
// layer figures are per-variant medians over the rounds.
const replayRounds = 3

// replayed is one spec's layer figures, timed from outside sim: sim.New,
// Run without telemetry, Run with a telemetry.Registry (its span tree
// gives the epoch and phase times), and Run with the registry plus a
// JSONL sink to io.Discard (the per-epoch records tgserve streams).
type replayed struct {
	newMS       float64
	plainMS     float64 // Run wall, no telemetry
	tracedMS    float64 // Run wall, registry attached
	sinkMS      float64 // Run wall, registry and JSONL sink attached
	epochs      int
	epochMS     float64 // the "epoch" span total
	phaseMS     map[string]float64
	hits, miss  float64 // PDN mask-cache lookups
	solves      float64 // PDN steady + transient solves
	substeps    float64 // thermal Euler substeps
	preludeMS   float64 // tracedMS - epochMS: θ-profiling and the initial steady state
	emitUS      float64 // per-epoch cost of the JSONL records
	overheadPct float64 // epoch time traced vs untraced
}

// flushSink mirrors tgserve's job sink: every record is flushed through
// as it is emitted.
type flushSink struct{ *telemetry.JSONLSink }

func (s flushSink) Emit(rec *telemetry.Record) error {
	if err := s.JSONLSink.Emit(rec); err != nil {
		return err
	}
	return s.Flush()
}

// replayAll replays the configurations on conc goroutines, so each one
// shares the CPUs the way jobs share them in the service and cells in
// the sweep.
func replayAll(cfgs []sim.Config) ([]replayed, error) {
	reps := make([]replayed, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(cfgs); i += conc {
				reps[i], errs[i] = replay(cfgs[i])
			}
		}()
	}
	wg.Wait()
	return reps, errors.Join(errs...)
}

func replay(cfg sim.Config) (replayed, error) {
	var news, plain, traced, sink, epochMS []float64
	phaseMS := make(map[string][]float64)
	var snap telemetry.Snapshot
	for round := 0; round < replayRounds; round++ {
		// Rotate the variants so none always runs first.
		for v := 0; v < 3; v++ {
			variant := (v + round) % 3
			c := cfg
			var reg *telemetry.Registry
			if variant > 0 {
				reg = telemetry.NewRegistry()
				c.Telemetry = reg
			}
			if variant == 2 {
				reg.AddSink(flushSink{telemetry.NewJSONLSink(io.Discard)})
			}
			t0 := time.Now()
			r, err := sim.New(c)
			if err != nil {
				return replayed{}, err
			}
			t1 := time.Now()
			if _, err := r.Run(); err != nil {
				return replayed{}, err
			}
			wall := ms(time.Since(t1))
			switch variant {
			case 0:
				news = append(news, ms(t1.Sub(t0)))
				plain = append(plain, wall)
			case 1:
				traced = append(traced, wall)
				snap = reg.Snapshot()
				ep, ok := findSpan(snap, "epoch")
				if !ok {
					return replayed{}, fmt.Errorf("replay: no epoch span")
				}
				epochMS = append(epochMS, float64(ep.TotalNS)/1e6)
				for _, c := range ep.Children {
					phaseMS[c.Name] = append(phaseMS[c.Name], float64(c.TotalNS)/1e6)
				}
			case 2:
				sink = append(sink, wall)
			}
		}
	}
	// The span counts and the counters are deterministic per spec: any
	// traced round's snapshot has them.
	ep, _ := findSpan(snap, "epoch")
	out := replayed{
		newMS:    median(news),
		plainMS:  median(plain),
		tracedMS: median(traced),
		sinkMS:   median(sink),
		epochs:   ep.Count,
		epochMS:  median(epochMS),
		phaseMS:  make(map[string]float64),
		hits:     counter(snap, "pdn_mask_cache_total", "hit"),
		miss:     counter(snap, "pdn_mask_cache_total", "miss"),
		solves:   counter(snap, "pdn_solves_total", "steady") + counter(snap, "pdn_solves_total", "transient"),
		substeps: counter(snap, "thermal_euler_substeps_total", ""),
	}
	if out.epochs != cfg.DurationMS {
		return replayed{}, fmt.Errorf("replay: %d epoch spans for %d epochs", out.epochs, cfg.DurationMS)
	}
	for name, xs := range phaseMS {
		out.phaseMS[name] = median(xs)
	}
	out.preludeMS = out.tracedMS - out.epochMS
	out.emitUS = (out.sinkMS - out.tracedMS) / float64(out.epochs) * 1e3
	out.overheadPct = (out.tracedMS - out.plainMS) / (out.plainMS - out.preludeMS) * 100
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func findSpan(sn telemetry.Snapshot, name string) (telemetry.SpanSnapshot, bool) {
	for _, s := range sn.Spans {
		if s.Name == name {
			return s, true
		}
	}
	return telemetry.SpanSnapshot{}, false
}

// counter sums a counter's series, or only those whose "kind" label is
// kind when kind is set.
func counter(sn telemetry.Snapshot, name, kind string) float64 {
	var v float64
	for _, c := range sn.Counters {
		if c.Name != name {
			continue
		}
		match := kind == ""
		for _, l := range c.Labels {
			if l.Name == "kind" && l.Value == kind {
				match = true
			}
		}
		if match {
			v += c.Value
		}
	}
	return v
}

// simLayers folds the replayed specs into the sim, pdn, thermal and
// trace metrics.
func simLayers(specs []sim.Config, reps []replayed, values map[string]float64) {
	var news, prac, other, epochUS, over []float64
	phase := make(map[string][]float64)
	var hits, lookups, solves, substeps, epochs float64
	for i, r := range reps {
		news = append(news, r.newMS)
		if isPractical(specs[i].Policy.String()) {
			prac = append(prac, r.preludeMS)
		} else {
			other = append(other, r.preludeMS)
		}
		n := float64(r.epochs)
		epochUS = append(epochUS, r.epochMS/n*1e3)
		for _, p := range sim.PhaseNames {
			phase[p] = append(phase[p], r.phaseMS[p]/n*1e3)
		}
		over = append(over, r.overheadPct)
		hits += r.hits
		lookups += r.hits + r.miss
		solves += r.solves
		substeps += r.substeps
		epochs += n
	}
	values["sim.new_ms"] = median(news)
	values["sim.prelude_ms.prac"] = median(prac)
	values["sim.prelude_ms.other"] = median(other)
	values["sim.epoch_us"] = median(epochUS)
	for _, p := range sim.PhaseNames {
		values["sim.phase_us."+p] = median(phase[p])
	}
	values["trace.overhead_pct"] = median(over)
	values["pdn.mask_hit_ratio"] = hits / lookups
	values["pdn.solves_per_epoch"] = solves / epochs
	values["thermal.substeps_per_epoch"] = substeps / epochs
}

// replaySample picks the first nPrac practical and first nOther other
// jobs, so both prelude classes are always measured.
func replaySample(jobs []jobRecord, nPrac, nOther int) []jobRecord {
	var out []jobRecord
	for _, it := range jobs {
		if isPractical(it.spec.Policy) {
			if nPrac > 0 {
				out = append(out, it)
				nPrac--
			}
		} else if nOther > 0 {
			out = append(out, it)
			nOther--
		}
	}
	return out
}
