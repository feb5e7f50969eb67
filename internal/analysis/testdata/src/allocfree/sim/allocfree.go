// Package sim is a tglint fixture for the allocfree pass. The package
// base name matters: "sim" carries a default tgperf root, so
// (Runner).stepEpoch anchors the hot set here just like the real
// runner's per-epoch step. Each seeded violation sits next to a clean
// twin exercising one tier of the escape lattice: value composites are
// StackLocal, guarded makes and [:0] appends are ReusedScratch, and
// everything reported Escapes.
package sim

import "fmt"

type point struct{ x, y int }

type Runner struct {
	scratch []float64
	buf     []float64
	buf2    []float64
	out     []float64
	hist    []float64
	tmp     []float64
	lut     []float64
	cache   map[uint64][]float64
	name    string
	n       int
	bad     bool
}

// debugChecks mirrors invariant.Enabled in a release build: constant
// false, so guarded blocks are statically dead.
const debugChecks = false

// box takes any value; scalar arguments box at the call site.
func box(v any) any { return v }

// NewRunner is cold construction code: its allocations are not findings.
func NewRunner() *Runner {
	return &Runner{cache: map[uint64][]float64{}}
}

// helper is hot only by reachability from stepEpoch.
func (r *Runner) helper() {
	r.tmp = make([]float64, 4) // want "make allocates"
}

// cached mirrors the pdn mask cache: the miss-path allocation is
// intentional and annotated, steady state always hits.
func (r *Runner) cached(k uint64) []float64 {
	if v, ok := r.cache[k]; ok {
		return v
	}
	v := make([]float64, r.n) //perf:alloc cache-miss path; steady state hits
	r.cache[k] = v
	return v
}

// emitRecord mirrors telemetry record emission: it allocates freely but
// only runs on instrumented runs, so the function-scope directive on the
// next line exempts the whole body from allocfree (not boxcheck).
//
//perf:alloc record emission runs only on instrumented runs
func (r *Runner) emitRecord() {
	r.tmp = make([]float64, r.n)
	_ = fmt.Sprintf("%d", r.n)
	_ = box(r.n)
}

func (r *Runner) stepEpoch() error {
	xs := make([]float64, 8) // want "make allocates"
	_ = xs
	q := new(point) // want "new allocates"
	_ = q

	// ReusedScratch: nil-guarded and cap-guarded makes, [:0] resets.
	if r.scratch == nil {
		r.scratch = make([]float64, 8)
	}
	if cap(r.buf2) < r.n {
		r.buf2 = make([]float64, 0, r.n)
	}
	r.buf = append(r.buf[:0], 1.0)

	r.out = append(r.out, 1) // want "append may grow"

	v := point{1, 2} // StackLocal: a value composite costs nothing
	_ = v
	pt := &point{1, 2} // want "&composite literal escapes"
	_ = pt
	ids := []int{1, 2} // want "slice literal allocates"
	_ = ids
	byName := map[string]int{"a": 1} // want "map literal allocates"
	_ = byName

	s := fmt.Sprintf("%d", r.n) // want "fmt.Sprintf allocates"
	_ = s
	msg := "domain " + r.name // want "string concatenation"
	_ = msg
	_ = box(r.n) // want "boxes a scalar"

	cb := func() { r.n++ } // want "closure"
	cb()
	func() { r.n-- }() // immediately invoked: no closure object

	r.helper()
	_ = r.cached(3)
	r.emitRecord()

	//perf:alloc warm-up fill; reused every epoch after the first
	r.lut = make([]float64, 64)

	if debugChecks {
		big := make([]float64, 1<<16) // statically dead: never reported
		_ = big
	}

	if r.bad {
		// Cold block: ends by returning a non-nil error.
		return fmt.Errorf("runner %s broken", r.name)
	}
	return nil
}
