// Package telemetry is the reproduction's observability layer: a
// lightweight, allocation-conscious metrics registry (counters, gauges and
// histograms keyed by name plus labels), nestable timing spans for the hot
// phases of a simulation epoch, and sinks that export snapshots as JSON
// lines, CSV, and a human-readable summary table.
//
// The layer is designed to cost nothing when disabled: every entry point is
// safe on a nil *Registry (and on the nil *Counter/*Gauge/*Histogram/*Span
// values a nil registry hands out), so instrumented code can call through
// unconditionally and pays only a nil check per call site. Enabled, the hot
// paths are lock-free (atomics) for counters and gauges, spans perform no
// allocation after their first Start/End cycle per name, and a reused
// typed Record streams through JSONLSink without allocating.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Label is one name=value dimension attached to a metric.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Key renders the canonical identity of a metric: the name followed by the
// sorted label set, e.g. `epoch_wall_ns{bench=fft,policy=oracT}`. Metrics
// that differ only in label order are the same metric.
func Key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing float64. The zero value is unusable;
// obtain counters from a Registry. All methods are safe on nil.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter. Negative deltas are ignored (counters are
// monotonic).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a last-value-wins float64. All methods are safe on nil.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value reads the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets and tracks
// the running sum and count. All methods are safe on nil.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf overflow bucket
	counts []atomic.Uint64
	sum    Counter // CAS float accumulator (observations must be >= 0 to sum exactly; negatives still count)
	sumNeg Counter
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	if v >= 0 {
		h.sum.Add(v)
	} else {
		h.sumNeg.Add(-v)
	}
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value() - h.sumNeg.Value()
}

// Registry holds the metric and span state of one instrumented run (or of a
// whole process — registries are cheap and concurrency-safe). A nil
// *Registry is the disabled state: every method no-ops and every accessor
// returns a nil metric whose methods also no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	meta     map[string]metricMeta
	order    []string // registration order of all keys, for stable snapshots

	spanMu sync.Mutex
	roots  []*Span // accumulated (ended) root span trees, merged by name

	sinkMu sync.Mutex
	sinks  []Sink

	// Spans read the clock as an offset from base: time.Since(base) on
	// the wall clock, whose monotonic reading is cheaper than time.Now,
	// or clock().Sub(base) once SetClock installs a replacement.
	base  time.Time
	clock func() time.Time
}

type metricMeta struct {
	name   string
	labels []Label
}

// NewRegistry returns an enabled registry using the wall clock.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		meta:     make(map[string]metricMeta),
		base:     time.Now(),
	}
}

// Enabled reports whether the registry records anything (false on nil).
func (r *Registry) Enabled() bool { return r != nil }

// SetClock replaces the time source (tests use a fake clock for
// deterministic span durations). It reads now once, as the base spans
// measure from. Not safe to call concurrently with use.
func (r *Registry) SetClock(now func() time.Time) {
	if r == nil || now == nil {
		return
	}
	r.clock = now
	r.base = now()
}

// elapsed is the span clock: the time since the registry's base.
func (r *Registry) elapsed() time.Duration {
	if r.clock != nil {
		return r.clock().Sub(r.base)
	}
	return time.Since(r.base)
}

func (r *Registry) remember(key, name string, labels []Label) {
	if _, ok := r.meta[key]; !ok {
		ls := make([]Label, len(labels))
		copy(ls, labels)
		sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
		r.meta[key] = metricMeta{name: name, labels: ls}
		r.order = append(r.order, key)
	}
}

// Counter returns (registering on first use) the counter for name+labels.
// Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := Key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
		r.remember(key, name, labels)
	}
	return c
}

// Gauge returns (registering on first use) the gauge for name+labels.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := Key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
		r.remember(key, name, labels)
	}
	return g
}

// Histogram returns (registering on first use) the histogram for
// name+labels with the given sorted upper bucket bounds; an overflow bucket
// is implicit. Bounds are fixed by the first registration. Returns nil on a
// nil registry.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := Key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		bs := make([]float64, len(bounds))
		copy(bs, bounds)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
		r.hists[key] = h
		r.remember(key, name, labels)
	}
	return h
}

// AddSink attaches a sink; Emit forwards every record to all attached
// sinks, serialized under the registry's sink lock.
func (r *Registry) AddSink(s Sink) {
	if r == nil || s == nil {
		return
	}
	r.sinkMu.Lock()
	r.sinks = append(r.sinks, s)
	r.sinkMu.Unlock()
}

// Emit forwards one record to every attached sink. The first sink error is
// returned; remaining sinks still receive the record.
func (r *Registry) Emit(rec *Record) error {
	if r == nil || rec == nil {
		return nil
	}
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	var first error
	for _, s := range r.sinks {
		if err := s.Emit(rec); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes every attached sink.
func (r *Registry) Close() error {
	if r == nil {
		return nil
	}
	r.sinkMu.Lock()
	defer r.sinkMu.Unlock()
	var first error
	for _, s := range r.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MetricPoint is one counter or gauge in a snapshot.
type MetricPoint struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramBucket is one bucket of a histogram snapshot; UpperBound is
// +Inf for the overflow bucket (marshalled as the string "+Inf", since JSON
// has no infinity literal).
type HistogramBucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the overflow bucket's bound as "+Inf".
func (b HistogramBucket) MarshalJSON() ([]byte, error) {
	type bucket struct {
		Le    any    `json:"le"`
		Count uint64 `json:"count"`
	}
	le := any(b.UpperBound)
	if math.IsInf(b.UpperBound, 1) {
		le = "+Inf"
	}
	return json.Marshal(bucket{Le: le, Count: b.Count})
}

// HistogramPoint is one histogram in a snapshot.
type HistogramPoint struct {
	Name    string            `json:"name"`
	Labels  []Label           `json:"labels,omitempty"`
	Buckets []HistogramBucket `json:"buckets"`
	Sum     float64           `json:"sum"`
	Count   uint64            `json:"count"`
}

// Snapshot is a point-in-time copy of everything a registry holds, ordered
// deterministically (metrics by key, span roots by merge order).
type Snapshot struct {
	Counters   []MetricPoint    `json:"counters,omitempty"`
	Gauges     []MetricPoint    `json:"gauges,omitempty"`
	Histograms []HistogramPoint `json:"histograms,omitempty"`
	Spans      []SpanSnapshot   `json:"spans,omitempty"`
}

// Snapshot copies the current state. Safe to call concurrently with
// updates; an empty snapshot is returned for a nil registry.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	var sn Snapshot
	r.mu.Lock()
	keys := make([]string, len(r.order))
	copy(keys, r.order)
	sort.Strings(keys)
	for _, key := range keys {
		m := r.meta[key]
		if c, ok := r.counters[key]; ok {
			sn.Counters = append(sn.Counters, MetricPoint{Name: m.name, Labels: m.labels, Value: c.Value()})
		}
		if g, ok := r.gauges[key]; ok {
			sn.Gauges = append(sn.Gauges, MetricPoint{Name: m.name, Labels: m.labels, Value: g.Value()})
		}
		if h, ok := r.hists[key]; ok {
			hp := HistogramPoint{Name: m.name, Labels: m.labels, Sum: h.Sum(), Count: h.Count()}
			for i := range h.counts {
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				hp.Buckets = append(hp.Buckets, HistogramBucket{UpperBound: ub, Count: h.counts[i].Load()})
			}
			sn.Histograms = append(sn.Histograms, hp)
		}
	}
	r.mu.Unlock()

	r.spanMu.Lock()
	for _, root := range r.roots {
		sn.Spans = append(sn.Spans, root.snapshotLocked())
	}
	r.spanMu.Unlock()
	return sn
}

// fmtValue renders a float without trailing noise for summary tables.
func fmtValue(v float64) string {
	//lint:ignore floatcheck exact integrality test that only picks a display format
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%g", v)
}
