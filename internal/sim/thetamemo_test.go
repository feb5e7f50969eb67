package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"thermogater/internal/core"
	"thermogater/internal/dvfs"
	"thermogater/internal/fault"
	"thermogater/internal/telemetry"
	"thermogater/internal/vr"
	"thermogater/internal/workload"
)

// memoTestConfig is a short practical run: the profiling pass dominates.
func memoTestConfig(t *testing.T, policy core.PolicyKind, bench string, seed uint64) Config {
	t.Helper()
	p, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(policy, p)
	cfg.Seed = seed
	cfg.DurationMS = 40
	cfg.WarmupEpochs = 10
	return cfg
}

// runBytes runs cfg with a frozen-clock JSONL sink and returns the
// result's JSON and the per-epoch stream.
func runBytes(t *testing.T, cfg Config) (result, stream []byte) {
	t.Helper()
	stream, res := runJSONL(t, cfg)
	result, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return result, stream
}

// TestThetaMemoHitIsByteIdentical is the memo's differential test: a run
// whose θ fit comes from the memo must equal a run that profiles afresh,
// in its Result and in every byte of its per-epoch stream.
func TestThetaMemoHitIsByteIdentical(t *testing.T) {
	memo := NewThetaMemo()
	check := func(t *testing.T, policyCfg func(core.PolicyKind) Config) {
		t.Helper()
		type run struct{ result, stream []byte }
		want := map[core.PolicyKind]run{}
		for _, policy := range []core.PolicyKind{core.PracT, core.PracVT} {
			res, stream := runBytes(t, policyCfg(policy))
			want[policy] = run{res, stream}
		}
		hits0, _ := memo.Stats()
		// The first pracT run fits and stores; pracVT and the second pracT
		// run hit.
		for _, policy := range []core.PolicyKind{core.PracT, core.PracVT, core.PracT} {
			cfg := policyCfg(policy)
			cfg.ThetaMemo = memo
			res, stream := runBytes(t, cfg)
			if !bytes.Equal(res, want[policy].result) {
				t.Errorf("%v: memoised Result differs from a fresh fit's", policy)
			}
			if !bytes.Equal(stream, want[policy].stream) {
				t.Errorf("%v: memoised stream (%d bytes) differs from a fresh fit's (%d bytes)", policy, len(stream), len(want[policy].stream))
			}
		}
		if hits, _ := memo.Stats(); hits != hits0+2 {
			t.Errorf("memo hits went %d → %d over pracT, pracVT, pracT; want two hits", hits0, hits)
		}
	}
	for _, bench := range []string{"fft", "lu_ncb", "radix", "water_spatial"} {
		for _, seed := range []uint64{1, 7, 42} {
			check(t, func(p core.PolicyKind) Config { return memoTestConfig(t, p, bench, seed) })
		}
	}
	check(t, func(p core.PolicyKind) Config {
		cfg := mixConfig(t, p)
		cfg.DurationMS = 40
		cfg.WarmupEpochs = 10
		return cfg
	})
}

// TestThetaMemoKeyCoverage changes one field at a time. A field the
// profiling pass reads must change the key, so the run misses; any other
// field must leave it alone, so the run hits.
func TestThetaMemoKeyCoverage(t *testing.T) {
	base := memoTestConfig(t, core.PracT, "fft", 3)
	radix, err := workload.ByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		field  string
		mutate func(*Config)
		hit    bool
	}{
		{"Benchmark", func(c *Config) { c.Benchmark = radix }, false},
		{"Mix", func(c *Config) { c.Mix = mixConfig(t, core.PracT).Mix }, false},
		{"Seed", func(c *Config) { c.Seed++ }, false},
		{"EpochMS", func(c *Config) { c.EpochMS = 2 }, false},
		{"SubstepMS", func(c *Config) { c.SubstepMS = 0.2 }, false},
		{"Design", func(c *Config) { c.Design = vr.POWER8LDO() }, false},
		{"Thermal", func(c *Config) { c.Thermal.AmbientC += 5 }, false},
		{"ProfilingEpochs", func(c *Config) { c.ProfilingEpochs = 120 }, false},

		{"Policy", func(c *Config) { c.Policy = core.PracVT }, true},
		{"DurationMS", func(c *Config) { c.DurationMS = 90 }, true},
		{"WarmupEpochs", func(c *Config) { c.WarmupEpochs = 20 }, true},
		{"SensorNoiseC", func(c *Config) { c.SensorNoiseC = 0.5 }, true},
		{"Faults", func(c *Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.VRStuckOff, Epoch: 15, Unit: 3}}}
		}, true},
		{"Governor", func(c *Config) { c.Governor = core.DefaultConfig(core.PracVT) }, true},
		{"DVFS", func(c *Config) { d := dvfs.DefaultConfig(); c.DVFS = &d }, true},
		{"TrackAging", func(c *Config) { c.TrackAging = true }, true},
		{"Checkpoint", func(c *Config) {
			c.Checkpoint = CheckpointConfig{EveryEpochs: 10, Sink: func(*Checkpoint) error { return nil }}
		}, true},
		{"Telemetry", func(c *Config) { c.Telemetry = telemetry.NewRegistry() }, true},
		{"PDN", func(c *Config) { c.PDN.R0Ohm *= 1.1 }, true},
		{"TraceEpochs", func(c *Config) { c.TraceEpochs = true }, true},
	}

	// Every thetaInputs field must be a same-typed Config field and must
	// appear among the cases that miss.
	missing := map[string]bool{}
	ti := reflect.TypeOf(thetaInputs{})
	for i := 0; i < ti.NumField(); i++ {
		f := ti.Field(i)
		cf, ok := reflect.TypeOf(Config{}).FieldByName(f.Name)
		if !ok || cf.Type != f.Type {
			t.Errorf("thetaInputs.%s has no Config field of type %v", f.Name, f.Type)
		}
		missing[f.Name] = true
	}
	for _, c := range cases {
		if !c.hit {
			delete(missing, c.field)
		}
	}
	for f := range missing {
		t.Errorf("no case changes key input %s", f)
	}

	// A Mix overrides Benchmark, so the profiling pass ignores Benchmark.
	mix := mixConfig(t, core.PracT)
	mixOther := mix
	mixOther.Benchmark = radix
	k1, err1 := thetaKey(mix)
	k2, err2 := thetaKey(mixOther)
	if err1 != nil || err2 != nil || k1 != k2 {
		t.Errorf("a Mix run's key depends on Benchmark (errors %v, %v)", err1, err2)
	}

	memo := NewThetaMemo()
	r, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	r.cfg.ThetaMemo = memo
	if _, err := r.fitTheta(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		cfg := base
		c.mutate(&cfg)
		cfg.ThetaMemo = memo
		r, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.field, err)
		}
		hits0, misses0 := memo.Stats()
		if _, err := r.fitTheta(); err != nil {
			t.Fatalf("%s: %v", c.field, err)
		}
		hits, misses := memo.Stats()
		if got := hits == hits0+1 && misses == misses0; got != c.hit {
			t.Errorf("changing %s: hit = %v, want %v (hits %d→%d, misses %d→%d)", c.field, got, c.hit, hits0, hits, misses0, misses)
		}
	}
}

// cancelAfterCtx reports cancellation from its nth Err poll on, so a test
// can stop a profiling pass part way through.
type cancelAfterCtx struct {
	context.Context
	mu    sync.Mutex
	polls int
	n     int
}

func (c *cancelAfterCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.polls++
	if c.polls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestThetaMemoStoresOnlySuccessfulFits: a pass canceled before or during
// profiling, or one too short to fit, leaves the memo empty, and the next
// run profiles afresh.
func TestThetaMemoStoresOnlySuccessfulFits(t *testing.T) {
	memo := NewThetaMemo()
	cfg := memoTestConfig(t, core.PracT, "fft", 5)
	cfg.ThetaMemo = memo
	wantRes, wantStream := runBytes(t, memoTestConfig(t, core.PracT, "fft", 5))

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{pre, &cancelAfterCtx{Context: context.Background(), n: 40}} {
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ce *CancelError
		if _, err := r.RunContext(ctx); !errors.As(err, &ce) {
			t.Fatalf("canceled run returned %v, want *CancelError", err)
		}
		if n := memo.size(); n != 0 {
			t.Fatalf("a canceled profiling pass stored %d fits", n)
		}
	}

	short := cfg
	short.ProfilingEpochs = 2
	for i := 0; i < 2; i++ {
		r, err := New(short)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(); err == nil {
			t.Fatal("a 2-epoch profiling pass succeeded")
		}
	}
	if hits, misses := memo.Stats(); hits != 0 || misses != 3 || memo.size() != 0 {
		t.Fatalf("after failed fits: hits %d, misses %d, len %d; want 0, 3, 0", hits, misses, memo.size())
	}

	gotRes, gotStream := runBytes(t, cfg)
	if !bytes.Equal(gotRes, wantRes) || !bytes.Equal(gotStream, wantStream) {
		t.Error("the run after the failed fits differs from a fresh run")
	}
	if hits, misses := memo.Stats(); hits != 0 || misses != 4 || memo.size() != 1 {
		t.Fatalf("after a good fit: hits %d, misses %d, len %d; want 0, 4, 1", hits, misses, memo.size())
	}
}

// TestThetaMemoHitIsAClone: a run that edits the θ model it was handed
// cannot change what the memo gives the next run.
func TestThetaMemoHitIsAClone(t *testing.T) {
	memo := NewThetaMemo()
	var key [sha256.Size]byte
	memo.store(key, core.ThetaModel{Theta: []float64{1, 2}, R2: []float64{0.9, 0.8}})
	got, ok := memo.lookup(key)
	if !ok {
		t.Fatal("stored fit not found")
	}
	got.Theta[0], got.R2[0] = -1, -1
	again, _ := memo.lookup(key)
	if again.Theta[0] != 1 || again.R2[0] != 0.9 {
		t.Errorf("editing a hit's fit changed the memo: %+v", again)
	}
}

// TestThetaMemoEvictsOldestFirst fills the memo past its cap.
func TestThetaMemoEvictsOldestFirst(t *testing.T) {
	memo := NewThetaMemo()
	key := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte{byte(i), byte(i >> 8)}) }
	for i := 0; i < thetaMemoCap+10; i++ {
		memo.store(key(i), core.ThetaModel{Theta: []float64{float64(i)}})
	}
	if n := memo.size(); n != thetaMemoCap {
		t.Fatalf("len = %d, want the cap %d", n, thetaMemoCap)
	}
	for i := 0; i < 10; i++ {
		if _, ok := memo.lookup(key(i)); ok {
			t.Errorf("fit %d of the oldest 10 survived", i)
		}
	}
	for i := 10; i < thetaMemoCap+10; i++ {
		if fit, ok := memo.lookup(key(i)); !ok || fit.Theta[0] != float64(i) {
			t.Fatalf("fit %d lost or wrong: %v %v", i, ok, fit)
		}
	}
}

// TestThetaMemoConcurrentRuns shares one memo between 8 goroutines running
// mixed keys, while each also churns the memo past its cap. Every result
// must equal its serial reference, and the memo must stay within the cap.
func TestThetaMemoConcurrentRuns(t *testing.T) {
	type job struct {
		policy core.PolicyKind
		bench  string
		seed   uint64
	}
	jobs := []job{
		{core.PracT, "fft", 11}, {core.PracVT, "fft", 11},
		{core.PracT, "radix", 12}, {core.PracVT, "radix", 12},
		{core.PracVT, "fft", 11}, {core.PracT, "radix", 12},
		{core.PracT, "lu_ncb", 13}, {core.PracVT, "lu_ncb", 13},
	}
	want := make([][]byte, len(jobs))
	for i, j := range jobs {
		want[i], _ = runBytes(t, memoTestConfig(t, j.policy, j.bench, j.seed))
	}

	memo := NewThetaMemo()
	got := make([][]byte, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for g := range jobs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < thetaMemoCap/len(jobs)+8; i++ {
				memo.store(sha256.Sum256([]byte{byte(g), byte(i)}), core.ThetaModel{Theta: []float64{1}})
			}
			j := jobs[g]
			cfg := memoTestConfig(t, j.policy, j.bench, j.seed)
			cfg.ThetaMemo = memo
			r, err := New(cfg)
			if err != nil {
				errs[g] = err
				return
			}
			res, err := r.Run()
			if err != nil {
				errs[g] = err
				return
			}
			got[g], errs[g] = json.Marshal(res)
		}(g)
	}
	wg.Wait()
	for i := range jobs {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("job %d (%v %s seed %d): concurrent memoised result differs from its serial reference", i, jobs[i].policy, jobs[i].bench, jobs[i].seed)
		}
	}
	if n := memo.size(); n > thetaMemoCap {
		t.Errorf("memo holds %d fits, over its cap %d", n, thetaMemoCap)
	}
}
