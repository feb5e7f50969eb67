// Command tgbench records the simulator's performance baseline from the
// telemetry layer: it runs a fixed set of short (policy, benchmark) cases
// several times, keeps each case's best repetition, and writes the
// per-epoch wall time, per-phase breakdown, solver-work counters, the
// paired cache-disabled control and the steady-state allocations per
// epoch as JSON. The driver for the repo's perf trajectory:
//
//	go run ./cmd/tgbench -out BENCH_baseline.json
//	go run ./cmd/tgbench -check BENCH_baseline.json
//
// Every future perf PR reruns tgbench and compares against the committed
// baseline; the per-phase figures say *where* a speedup (or regression)
// landed. -check is the CI smoke over the committed file: it parses the
// report and asserts its claims are self-consistent, including
// allocs_per_epoch < 0.5 and a pdn-phase caching win over the control
// (see docs/PERFORMANCE.md for the methodology).
//
// Ratios are only ever taken within one interleaved session: repetition
// r of every cell (cached, cache off, ...) runs before repetition r+1 of
// any, so all cells sample the same machine-noise windows. A cross-file
// comparison against the committed baseline has no such pairing and is
// deliberately not computed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"thermogater/internal/core"
	"thermogater/internal/fault"
	"thermogater/internal/invariant"
	"thermogater/internal/pdn"
	"thermogater/internal/sim"
	"thermogater/internal/telemetry"
	"thermogater/internal/workload"
)

// benchCase is one measured configuration.
type benchCase struct {
	Policy string
	Bench  string
}

// defaultCases spans the cost spectrum: all-on (no decision work), the
// oracle (heavy emergency-oracle PDN solving) and the practical policy
// (θ-profiling plus predictor work).
var defaultCases = []benchCase{
	{"all-on", "fft"},
	{"oracT", "fft"},
	{"pracVT", "lu_ncb"},
}

// CaseResult is the recorded baseline of one case (best repetition).
type CaseResult struct {
	Name              string           `json:"name"`
	Policy            string           `json:"policy"`
	Benchmark         string           `json:"benchmark"`
	Epochs            int              `json:"epochs"`
	Repetitions       int              `json:"repetitions"`
	WallNSPerEpoch    float64          `json:"wall_ns_per_epoch"`
	PhaseNSPerEpoch   map[string]int64 `json:"phase_ns_per_epoch"`
	ThermalSubsteps   float64          `json:"thermal_substeps_per_epoch"`
	PDNSteadySolves   float64          `json:"pdn_steady_solves_per_epoch"`
	PDNTransientSolve float64          `json:"pdn_transient_solves_per_epoch"`
	// CacheHitRate is hits/(hits+misses) of the PDN per-mask resistance
	// cache over the run; 0 when the counters never moved.
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	// NoCacheWallNSPerEpoch is the same run with pdn.CacheDisabled — the
	// uncached control every caching claim is paired against.
	NoCacheWallNSPerEpoch float64 `json:"nocache_wall_ns_per_epoch,omitempty"`
	// CacheSpeedup is uncached/cached whole-run wall time, the median of
	// the per-round paired ratios. The win is diluted across all six
	// phases, so this ratio sits near 1.
	CacheSpeedup float64 `json:"cache_speedup,omitempty"`
	// CacheSpeedupPDNPhase is the same ratio on the pdn phase alone,
	// where the cached work lives; -check requires it >= 1.
	CacheSpeedupPDNPhase float64 `json:"cache_speedup_pdn_phase,omitempty"`
	// AllocsPerEpoch and BytesPerEpoch are the steady-state heap cost of
	// one epoch, measured by paired differencing: the same case runs
	// (without telemetry) at durations D and 2D with runtime.MemStats
	// read around each run, and (Δmallocs, Δbytes)/Δepochs between the
	// two cancels every fixed cost — construction, θ-profiling, warm-up
	// buffer growth, cache fill. The epoch loop's zero-allocation
	// contract (internal/sim/alloc_test.go) pins this at ~0; -check
	// fails any case at or above 0.5.
	AllocsPerEpoch float64 `json:"allocs_per_epoch"`
	BytesPerEpoch  float64 `json:"bytes_per_epoch"`
}

// BaselineSchema tags BENCH_baseline.json; -check rejects anything else.
const BaselineSchema = "thermogater/bench/v2"

// Baseline is the file tgbench writes.
type Baseline struct {
	Schema      string `json:"schema"`
	CreatedUnix int64  `json:"created_unix"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	DurationMS  int    `json:"duration_ms"`
	// Sanitizer records whether the binary was built with -tags tgsan;
	// numbers from a sanitized build are not comparable to the committed
	// baseline and must never overwrite it.
	Sanitizer bool `json:"sanitizer"`
	// NoiseFloorPct is the paired null measurement (first case only): a
	// cell running the exact same configuration as the plain one joins
	// every interleaved round, and this records the median |per-round ratio −
	// 1| between the two identical cells — what the paired estimator
	// reports when the true effect is zero. Deltas below it (like a
	// small fault_overhead_pct, positive or negative) are measurement
	// noise, not effects.
	NoiseFloorPct float64 `json:"noise_floor_pct"`
	// FaultOverheadPct is the per-epoch wall-time cost of arming the fault
	// injector with a schedule that never fires, relative to the same run
	// with no schedule at all — the price healthy runs pay for the
	// robustness plumbing (first case only; expected within the noise
	// floor of zero).
	FaultOverheadPct float64      `json:"fault_overhead_pct"`
	Cases            []CaseResult `json:"cases"`
}

func main() {
	var (
		out      = flag.String("out", "BENCH_baseline.json", "output file (- for stdout)")
		duration = flag.Int("duration", 150, "run length per case in ms")
		reps     = flag.Int("reps", 3, "timed repetitions per case (best is kept)")
		warmup   = flag.Int("warmup", 1, "discarded warm-up repetitions per case")
		seed     = flag.Uint64("seed", 1, "random seed")
		check    = flag.String("check", "", "validate a committed baseline and exit")
	)
	flag.Parse()

	if *check != "" {
		if err := checkBaselineFile(*check); err != nil {
			fmt.Fprintln(os.Stderr, "tgbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: ok\n", *check)
		return
	}

	b, err := measure(defaultCases, *duration, *reps, *warmup, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tgbench:", err)
		os.Exit(1)
	}

	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "-" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tgbench:", err)
			os.Exit(1)
		}
		w = f
	}
	if err := writeJSON(w, b); err != nil {
		fmt.Fprintln(os.Stderr, "tgbench:", err)
		os.Exit(1)
	}
	if f != nil {
		// An unchecked Close here could silently truncate the baseline.
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tgbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d cases)\n", *out, len(b.Cases))
	}
}

// measure runs every case warmup+reps times (warm-ups discarded) and
// keeps the fastest timed repetition. Each case's cells run interleaved
// in one session: the plain run, the cache-disabled control and a null
// (the plain run again, for the noise floor); the first case adds an
// armed-but-idle fault injector. The allocation pass follows each
// session.
func measure(cases []benchCase, durationMS, reps, warmup int, seed uint64) (*Baseline, error) {
	b := &Baseline{
		Schema:      BaselineSchema,
		CreatedUnix: time.Now().Unix(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		DurationMS:  durationMS,
		Sanitizer:   invariant.Enabled,
	}
	// The idle schedule fires one event far past the end of the run, so
	// only the plumbing cost is measured. The plumbing cost is far below
	// this machine's minute-scale drift, so only adjacent-in-time pairs
	// can resolve it at all (the recorded noise_floor_pct says how little
	// even they can resolve).
	idle := &fault.Schedule{Events: []fault.Event{{
		Kind:  fault.VRStuckOff,
		Epoch: durationMS + 1000,
		Unit:  0,
	}}}
	for i, c := range cases {
		plain := caseOpts{durationMS: durationMS, reps: reps, warmup: warmup, seed: seed}
		nocache := plain
		nocache.nocache = true
		opts := []caseOpts{plain, nocache, plain}
		if i == 0 {
			armed := plain
			armed.faults = idle
			opts = append(opts, armed)
		}
		bests, rounds, err := measureInterleaved(c, opts)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c.Policy, c.Bench, err)
		}
		if bests[0] == nil || bests[1] == nil {
			return nil, fmt.Errorf("%s/%s: no timed repetitions (reps=%d)", c.Policy, c.Bench, reps)
		}
		best := bests[0]
		best.NoCacheWallNSPerEpoch = bests[1].WallNSPerEpoch
		best.CacheSpeedup = medianRatio(rounds, 1, 0, wallOf)
		best.CacheSpeedupPDNPhase = medianRatio(rounds, 1, 0, func(r *CaseResult) float64 {
			return float64(r.PhaseNSPerEpoch["pdn"])
		})
		best.AllocsPerEpoch, best.BytesPerEpoch, err = measureAllocsPerEpoch(c, plain)
		if err != nil {
			return nil, fmt.Errorf("%s/%s allocation pass: %w", c.Policy, c.Bench, err)
		}
		if i == 0 {
			b.NoiseFloorPct = nullFloorPct(rounds, 2, 0)
			if ratio := medianRatio(rounds, 3, 0, wallOf); ratio > 0 {
				b.FaultOverheadPct = 100 * (ratio - 1)
			}
		}
		b.Cases = append(b.Cases, *best)
	}
	return b, nil
}

// nullFloorPct measures the paired estimator's resolution from a null
// pair: cells a and b ran the *same* configuration in every round, so
// the median |per-round wall ratio − 1| between them is what medianRatio
// reports when the true effect is zero. A cross-cell delta below this
// floor is indistinguishable from noise on this machine.
func nullFloorPct(rounds [][]*CaseResult, a, b int) float64 {
	var devs []float64
	for _, row := range rounds {
		x, y := row[a].WallNSPerEpoch, row[b].WallNSPerEpoch
		if x > 0 && y > 0 {
			devs = append(devs, math.Abs(x/y-1))
		}
	}
	return 100 * median(devs)
}

// median of a slice; 0 when empty. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return 0.5 * (s[n/2-1] + s[n/2])
	}
}

// checkBaselineFile is the CI smoke over the committed baseline: it must
// parse, carry the right schema, and every recorded claim must be
// self-consistent — positive wall times, hit rates inside [0, 1], a
// recorded cache-disabled control, a pdn-phase caching win over it, and
// a steady-state epoch that does not allocate.
func checkBaselineFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if b.Schema != BaselineSchema {
		return fmt.Errorf("%s: schema %q, want %q", path, b.Schema, BaselineSchema)
	}
	if len(b.Cases) == 0 {
		return fmt.Errorf("%s: no cases", path)
	}
	for _, c := range b.Cases {
		if c.Epochs <= 0 {
			return fmt.Errorf("%s: case %s has %d epochs", path, c.Name, c.Epochs)
		}
		if c.WallNSPerEpoch <= 0 {
			return fmt.Errorf("%s: case %s has wall %v ns/epoch", path, c.Name, c.WallNSPerEpoch)
		}
		if c.CacheHitRate < 0 || c.CacheHitRate > 1 {
			return fmt.Errorf("%s: case %s hit rate %v outside [0,1]", path, c.Name, c.CacheHitRate)
		}
		if math.Abs(c.AllocsPerEpoch) >= 0.5 {
			return fmt.Errorf("%s: case %s allocates %.2f times per steady-state epoch — the zero-allocation contract (internal/sim/alloc_test.go, docs/PERFORMANCE.md) is broken", path, c.Name, c.AllocsPerEpoch)
		}
		if c.NoCacheWallNSPerEpoch <= 0 {
			return fmt.Errorf("%s: case %s has no cache-disabled control (%v ns/epoch)", path, c.Name, c.NoCacheWallNSPerEpoch)
		}
		if c.CacheSpeedupPDNPhase < 1.0 {
			return fmt.Errorf("%s: case %s pdn-phase cache speedup %v < 1.0 — the caching claim fails its own paired control", path, c.Name, c.CacheSpeedupPDNPhase)
		}
	}
	return nil
}

// runMallocs executes one full run without a telemetry registry (record
// emission allocates by design and would mask the epoch loop's contract)
// and returns the process-wide malloc and allocated-byte deltas across
// Run. Construction stays outside the measured window, but the paired
// differencing in measureAllocsPerEpoch would cancel it anyway.
func runMallocs(c benchCase, opt caseOpts) (mallocs, bytes uint64, err error) {
	policy, err := core.ParsePolicy(c.Policy)
	if err != nil {
		return 0, 0, err
	}
	bench, err := workload.ByName(c.Bench)
	if err != nil {
		return 0, 0, err
	}
	cfg := sim.DefaultConfig(policy, bench)
	cfg.Seed = opt.seed
	cfg.DurationMS = opt.durationMS
	cfg.Faults = opt.faults
	if opt.nocache {
		cfg.PDN.MaskCacheSize = pdn.CacheDisabled
	}
	r, err := sim.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	var m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if _, err := r.Run(); err != nil {
		return 0, 0, err
	}
	runtime.ReadMemStats(&m2)
	return m2.Mallocs - m1.Mallocs, m2.TotalAlloc - m1.TotalAlloc, nil
}

// measureAllocsPerEpoch runs one cell at durations D and 2D and divides
// the malloc/byte difference by the epoch difference. Every fixed cost —
// runner construction, θ-profiling (ProfilingEpochs is
// duration-independent), warm-up slice growth, LRU fill — appears in
// both runs and cancels; what remains is the marginal heap cost of one
// steady-state epoch. Exact counter arithmetic, not timing: a single
// pair suffices.
func measureAllocsPerEpoch(c benchCase, opt caseOpts) (allocs, bytes float64, err error) {
	long := opt
	long.durationMS = 2 * opt.durationMS
	a1, b1, err := runMallocs(c, opt)
	if err != nil {
		return 0, 0, err
	}
	a2, b2, err := runMallocs(c, long)
	if err != nil {
		return 0, 0, err
	}
	// EpochMS is 1.0 in DefaultConfig, so epochs == durationMS.
	dEpochs := float64(long.durationMS - opt.durationMS)
	return (float64(a2) - float64(a1)) / dEpochs, (float64(b2) - float64(b1)) / dEpochs, nil
}

// caseOpts parameterises one measurement cell.
type caseOpts struct {
	durationMS, reps, warmup int
	seed                     uint64
	faults                   *fault.Schedule
	// nocache disables the PDN per-mask resistance cache — the paired
	// control for the caching claim.
	nocache bool
}

// runOnce executes one full run of a case and distils its telemetry.
func runOnce(c benchCase, opt caseOpts) (*CaseResult, error) {
	policy, err := core.ParsePolicy(c.Policy)
	if err != nil {
		return nil, err
	}
	bench, err := workload.ByName(c.Bench)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	cfg := sim.DefaultConfig(policy, bench)
	cfg.Seed = opt.seed
	cfg.DurationMS = opt.durationMS
	cfg.Telemetry = reg
	cfg.Faults = opt.faults
	if opt.nocache {
		cfg.PDN.MaskCacheSize = pdn.CacheDisabled
	}
	r, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := r.Run(); err != nil {
		return nil, err
	}
	res, err := fromSnapshot(reg.Snapshot())
	if err != nil {
		return nil, err
	}
	res.Name = "runner/" + c.Policy + "/" + c.Bench
	res.Policy, res.Benchmark = c.Policy, c.Bench
	res.Repetitions = opt.reps
	return res, nil
}

// measureInterleaved times several cells of one case round-robin:
// repetition r of every cell runs before repetition r+1 of any, so all
// cells sample the same machine-noise windows. Warm-up rounds run every
// cell and are discarded; each cell keeps its fastest timed repetition
// as its own wall figure. rounds[r][i] is cell i's result in timed round
// r — cross-cell ratios must be taken per round (adjacent runs, drift
// cancels) and aggregated with the median (see medianRatio), never
// between independently-chosen best repetitions: on a machine that
// drifts several percent minute to minute, one lucky repetition in one
// cell would otherwise set the whole figure. Repetition counts come
// from opts[0]; a cell with zero timed repetitions yields a nil best.
func measureInterleaved(c benchCase, opts []caseOpts) (bests []*CaseResult, rounds [][]*CaseResult, err error) {
	bests = make([]*CaseResult, len(opts))
	for rep := 0; rep < opts[0].warmup+opts[0].reps; rep++ {
		row := make([]*CaseResult, len(opts))
		for i, opt := range opts {
			res, err := runOnce(c, opt)
			if err != nil {
				return nil, nil, err
			}
			row[i] = res
		}
		if rep < opts[0].warmup {
			continue
		}
		rounds = append(rounds, row)
		for i, res := range row {
			if bests[i] == nil || res.WallNSPerEpoch < bests[i].WallNSPerEpoch {
				bests[i] = res
			}
		}
	}
	return bests, rounds, nil
}

// medianRatio aggregates a cross-cell ratio over the timed rounds:
// f(numerator cell)/f(denominator cell) within each round, median across
// rounds. Rounds where either figure is non-positive are skipped.
func medianRatio(rounds [][]*CaseResult, num, den int, f func(*CaseResult) float64) float64 {
	var ratios []float64
	for _, row := range rounds {
		n, d := f(row[num]), f(row[den])
		if n > 0 && d > 0 {
			ratios = append(ratios, n/d)
		}
	}
	return median(ratios)
}

// wallOf reads a result's per-epoch wall time (the default medianRatio
// metric).
func wallOf(r *CaseResult) float64 { return r.WallNSPerEpoch }

// fromSnapshot distils one run's telemetry snapshot into per-epoch figures.
func fromSnapshot(sn telemetry.Snapshot) (*CaseResult, error) {
	var epoch *telemetry.SpanSnapshot
	for i := range sn.Spans {
		if sn.Spans[i].Name == "epoch" {
			epoch = &sn.Spans[i]
		}
	}
	if epoch == nil || epoch.Count == 0 {
		return nil, fmt.Errorf("snapshot has no epoch span")
	}
	n := float64(epoch.Count)
	res := &CaseResult{
		Epochs:          epoch.Count,
		WallNSPerEpoch:  float64(epoch.TotalNS) / n,
		PhaseNSPerEpoch: make(map[string]int64, len(epoch.Children)),
	}
	for _, ph := range epoch.Children {
		res.PhaseNSPerEpoch[ph.Name] = int64(float64(ph.TotalNS) / n)
	}
	counter := func(key string) float64 {
		for _, c := range sn.Counters {
			if telemetry.Key(c.Name, c.Labels) == key {
				return c.Value
			}
		}
		return 0
	}
	res.ThermalSubsteps = counter("thermal_euler_substeps_total") / n
	res.PDNSteadySolves = counter("pdn_solves_total{kind=steady}") / n
	res.PDNTransientSolve = counter("pdn_solves_total{kind=transient}") / n
	hits := counter("pdn_mask_cache_total{kind=hit}")
	misses := counter("pdn_mask_cache_total{kind=miss}")
	if hits+misses > 0 {
		res.CacheHitRate = hits / (hits + misses)
	}
	return res, nil
}

func writeJSON(w io.Writer, payload any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}
