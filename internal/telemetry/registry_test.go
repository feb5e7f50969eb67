package telemetry

import (
	"math"
	"sync"
	"testing"
)

func TestNilRegistryIsFreeAndSafe(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []float64{1, 2})
	sp := r.StartSpan("epoch")
	if c != nil || g != nil || h != nil || sp != nil {
		t.Fatal("nil registry handed out live metrics")
	}
	// Every operation on the nil handles must no-op, not panic.
	c.Add(1)
	c.Inc()
	g.Set(3)
	h.Observe(1)
	child := sp.StartChild("power")
	child.End()
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || sp.Total() != 0 {
		t.Fatal("nil metrics accumulated state")
	}
	if err := r.Emit(NewRecord("epoch").Int("k", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	sn := r.Snapshot()
	if len(sn.Counters)+len(sn.Gauges)+len(sn.Histograms)+len(sn.Spans) != 0 {
		t.Fatal("nil registry produced a non-empty snapshot")
	}
}

func TestKeyCanonicalisesLabelOrder(t *testing.T) {
	a := Key("m", []Label{L("b", "2"), L("a", "1")})
	b := Key("m", []Label{L("a", "1"), L("b", "2")})
	if a != b {
		t.Fatalf("label order changed the key: %q vs %q", a, b)
	}
	if a != "m{a=1,b=2}" {
		t.Fatalf("unexpected key %q", a)
	}
	if Key("m", nil) != "m" {
		t.Fatal("unlabelled key altered")
	}
}

func TestMetricIdentity(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("solves", L("kind", "steady"))
	c2 := r.Counter("solves", L("kind", "steady"))
	if c1 != c2 {
		t.Fatal("same name+labels produced distinct counters")
	}
	if c3 := r.Counter("solves", L("kind", "transient")); c3 == c1 {
		t.Fatal("distinct labels shared a counter")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("epochs")
			g := r.Gauge("tmax")
			h := r.Histogram("wall_ms", []float64{1, 10, 100})
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				g.Set(float64(i))
				h.Observe(float64(i % 200))
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("epochs").Value(); got != workers*perWorker {
		t.Fatalf("counter lost updates: got %v want %v", got, workers*perWorker)
	}
	if got := r.Histogram("wall_ms", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram lost updates: got %v want %v", got, workers*perWorker)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{10, 100})
	for _, v := range []float64{1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	sn := r.Snapshot()
	if len(sn.Histograms) != 1 {
		t.Fatalf("want 1 histogram, got %d", len(sn.Histograms))
	}
	hp := sn.Histograms[0]
	want := []uint64{3, 1, 1} // ≤10: {1,5,10}; ≤100: {50}; +Inf: {1000}
	for i, b := range hp.Buckets {
		if b.Count != want[i] {
			t.Fatalf("bucket %d: got %d want %d", i, b.Count, want[i])
		}
	}
	if !math.IsInf(hp.Buckets[2].UpperBound, 1) {
		t.Fatal("missing +Inf overflow bucket")
	}
	if hp.Sum != 1066 || hp.Count != 5 {
		t.Fatalf("sum/count: got %v/%v", hp.Sum, hp.Count)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Inc()
	r.Counter("alpha").Inc()
	r.Counter("mid", L("k", "v")).Inc()
	sn := r.Snapshot()
	var keys []string
	for _, c := range sn.Counters {
		keys = append(keys, Key(c.Name, c.Labels))
	}
	want := []string{"alpha", "mid{k=v}", "zeta"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", keys, want)
		}
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	c.Add(2)
	c.Add(-5)
	if c.Value() != 2 {
		t.Fatalf("counter went backwards: %v", c.Value())
	}
}
