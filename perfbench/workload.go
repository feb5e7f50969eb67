package main

import (
	"fmt"
	"math/rand/v2"

	"thermogater/internal/core"
	"thermogater/internal/serve"
	"thermogater/internal/workload"
)

// conc is the client and worker count of every workload: the reference
// box's nproc (2) and tgserve's default worker count.
const conc = 2

// defaultWarmupEpochs is sim.DefaultConfig's warm-up; a job's result holds
// DurationMS minus this many measured epochs.
const defaultWarmupEpochs = 20

// The workloads. There is no traffic log, so each mix is a stated
// assumption grounded in the paper's evaluation grid (14 benchmarks × 8
// policies); README.md gives the reasons.
const (
	svcShort  = "svc-short"
	svcLong   = "svc-long"
	sweepGrid = "sweep-grid"
)

var workloads = []string{svcShort, svcLong, sweepGrid}

// Spec generation. Measured specs draw their sim seeds from [1, 2^31];
// warm-up specs (setup) from warmSeedBase upwards, so the two never share
// a seed and no cache filled in setup can serve a measured job.
const (
	measuredSeedMax = 1 << 31
	warmSeedBase    = 1 << 40
)

const (
	shortSeedsPerBench = 4   // svc-short's pool: this many seeds per benchmark
	shortMinMS         = 30  // svc-short durations: [shortMinMS, shortMinMS+shortSpanMS)
	shortSpanMS        = 100 //
	longMinMS          = 300 // svc-long durations: [longMinMS, longMinMS+longSpanMS)
	longSpanMS         = 400 //
	sweepCellMS        = 250 // sweep-grid's shortened region of interest per cell
	blockLen           = 8   // jobs per stratified block
)

var (
	suiteNames    = suiteBenchmarks()
	allPolicies   = []string{"naive", "oracT", "oracV", "oracVT", "pracT", "pracVT", "all-on", "off-chip"}
	otherPolicies = []string{"naive", "oracT", "oracV", "oracVT", "all-on", "off-chip"}
)

func suiteBenchmarks() []string {
	var names []string
	for _, p := range workload.Suite() {
		names = append(names, p.Name)
	}
	return names
}

// isPractical reports whether the policy runs the θ-profiling pass.
func isPractical(policy string) bool {
	p, err := core.ParsePolicy(policy)
	return err == nil && (p == core.PracT || p == core.PracVT)
}

// specGen is the deterministic job stream of one service workload: the
// same (workload, seed) gives the same sequence of specs. The stream is
// stratified so every seed sends the same mix and a run measures the
// service rather than its draw: each block of blockLen jobs takes one
// duration from each eighth of the range; svc-short fixes the policy mix
// per block and deals its pool pairs from a shuffled deck, svc-long deals
// (policy, benchmark) cells from a shuffled deck of the whole grid. Every
// spec has a distinct job ID, so the supervisor never dedups a measured
// job.
type specGen struct {
	name   string
	rng    *rand.Rand
	base   uint64 // added to every sim seed (warm-up streams)
	block  []serve.JobSpec
	pairs  []pair   // svc-short's pool
	pairQ  []pair   // pool pairs left in this pass over the pool
	otherQ []string // svc-short's other policies left in this pass
	cellQ  []cell   // svc-long's (policy, benchmark) cells left in this pass
	seen   map[string]bool
	seeds  map[uint64]bool // svc-long's seeds, each used once
}

type pair struct {
	bench string
	seed  uint64
}

type cell struct{ policy, bench string }

// grid is every (policy, benchmark) cell of the evaluation.
func grid() []cell {
	var cells []cell
	for _, p := range allPolicies {
		for _, b := range suiteNames {
			cells = append(cells, cell{p, b})
		}
	}
	return cells
}

// newSpecGen returns the measured job stream of a service workload.
func newSpecGen(name string, seed uint64) (*specGen, error) {
	return newGen(name, seed, 0)
}

// newWarmGen returns the warm-up stream of setup round k: the same mix,
// with sim seeds disjoint from every measured stream and every other round.
func newWarmGen(name string, seed uint64, k int) (*specGen, error) {
	return newGen(name, seed^0x9e3779b97f4a7c15, warmSeedBase*uint64(k+1))
}

func newGen(name string, seed, base uint64) (*specGen, error) {
	if name != svcShort && name != svcLong {
		return nil, fmt.Errorf("no job stream for workload %q", name)
	}
	g := &specGen{
		name:  name,
		rng:   rand.New(rand.NewPCG(seed, 0x7468_6572_6d6f)),
		base:  base,
		seen:  make(map[string]bool),
		seeds: make(map[uint64]bool),
	}
	if name == svcShort {
		for _, b := range suiteNames {
			for i := 0; i < shortSeedsPerBench; i++ {
				g.pairs = append(g.pairs, pair{b, g.simSeed()})
			}
		}
	}
	return g, nil
}

func (g *specGen) simSeed() uint64 { return g.base + 1 + g.rng.Uint64N(measuredSeedMax) }

// deal takes the next card from a deck, refilling it shuffled from all
// when it runs out.
func deal[T any](g *specGen, deck *[]T, all []T) T {
	if len(*deck) == 0 {
		*deck = append([]T(nil), all...)
		g.rng.Shuffle(len(*deck), func(i, j int) { (*deck)[i], (*deck)[j] = (*deck)[j], (*deck)[i] })
	}
	c := (*deck)[0]
	*deck = (*deck)[1:]
	return c
}

// next returns the stream's next spec.
func (g *specGen) next() (serve.JobSpec, error) {
	if len(g.block) == 0 {
		if err := g.fill(); err != nil {
			return serve.JobSpec{}, err
		}
	}
	s := g.block[0]
	g.block = g.block[1:]
	return s, nil
}

func (g *specGen) fill() error {
	strata := g.rng.Perm(blockLen)
	if g.name == svcLong {
		for _, st := range strata {
			// Every seed unique, so no θ fit is ever shared.
			c := deal(g, &g.cellQ, grid())
			seed := g.simSeed()
			for g.seeds[seed] {
				seed = g.simSeed()
			}
			g.seeds[seed] = true
			spec, err := g.spec(c.policy, c.bench, seed, st)
			if err != nil {
				return err
			}
			g.block = append(g.block, spec)
		}
		return nil
	}
	// svc-short: three quarters practical (pracT, pracVT), so the median
	// stays inside the θ-profiled cost mode; the pracT and pracVT jobs of
	// a pool pair share a θ fit.
	policies := []string{"pracT", "pracT", "pracT", "pracVT", "pracVT", "pracVT",
		deal(g, &g.otherQ, otherPolicies), deal(g, &g.otherQ, otherPolicies)}
	g.rng.Shuffle(len(policies), func(i, j int) { policies[i], policies[j] = policies[j], policies[i] })
	for i, policy := range policies {
		p := deal(g, &g.pairQ, g.pairs)
		spec, err := g.spec(policy, p.bench, p.seed, strata[i])
		if err != nil {
			return err
		}
		g.block = append(g.block, spec)
	}
	return nil
}

// spec draws one job with a duration from the given eighth of the
// workload's range, moving to the whole range if that eighth has no
// unused job ID left for it.
func (g *specGen) spec(policy, bench string, seed uint64, stratum int) (serve.JobSpec, error) {
	lo, span := shortMinMS, shortSpanMS
	if g.name == svcLong {
		lo, span = longMinMS, longSpanMS
	}
	s := serve.JobSpec{Policy: policy, Benchmark: bench, Seed: seed}
	for try := 0; try < 1000; try++ {
		u := g.rng.Float64()
		if try < 20 {
			u = (float64(stratum) + u) / blockLen
		}
		s.DurationMS = lo + int(u*float64(span))
		if id := s.ID(); !g.seen[id] {
			g.seen[id] = true
			return s, nil
		}
	}
	return serve.JobSpec{}, fmt.Errorf("%s: no distinct spec left after %d jobs", g.name, len(g.seen))
}

// sweepSeeds is sweep-grid's deterministic stream: one experiments seed
// per RunSweep call.
type sweepSeeds struct{ rng *rand.Rand }

func newSweepSeeds(seed uint64) *sweepSeeds {
	return &sweepSeeds{rand.New(rand.NewPCG(seed, 0x7377_6565_70))}
}

func (s *sweepSeeds) next() uint64 { return 1 + s.rng.Uint64N(measuredSeedMax) }
