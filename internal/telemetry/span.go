package telemetry

import "time"

// Span is one node of a timing span tree. A span accumulates: starting and
// ending a child with the same name repeatedly (the per-substep pattern in
// the simulation loop) adds into one node rather than growing the tree, so
// a fully instrumented epoch allocates a handful of nodes once and then
// reuses them. Spans are not safe for concurrent use from multiple
// goroutines; each goroutine (each runner) builds its own tree and merges
// into the shared registry on End. All methods are safe on a nil *Span.
type Span struct {
	reg      *Registry
	name     string
	parent   *Span
	children []*Span
	start    time.Duration // registry clock reading at the latest start
	running  bool
	total    time.Duration
	count    int
}

// SpanSnapshot is one node of an exported span tree.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	TotalNS  int64          `json:"total_ns"`
	Count    int            `json:"count"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// StartSpan begins a new root span. The root is detached until End, which
// merges the finished tree (by name, recursively) into the registry's
// accumulated span state. Returns nil — a free no-op span — on a nil
// registry.
func (r *Registry) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, name: name, start: r.elapsed(), running: true}
}

// StartChild finds (or creates) the child span with the given name and
// starts timing it. Nil-safe: a nil parent returns a nil child.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	for _, c := range s.children {
		if c.name == name {
			if !c.running {
				c.start = s.reg.elapsed()
				c.running = true
			}
			return c
		}
	}
	c := &Span{reg: s.reg, name: name, parent: s, start: s.reg.elapsed(), running: true}
	s.children = append(s.children, c)
	return c
}

// End stops the span, accumulating the elapsed time since its (latest)
// start into Total and incrementing Count. Ending a root span additionally
// merges the whole tree into its registry; the span keeps its values so the
// caller can still read per-interval figures after End.
func (s *Span) End() {
	if s == nil || !s.running {
		return
	}
	s.running = false
	s.total += s.reg.elapsed() - s.start
	s.count++
	if s.parent == nil {
		s.reg.mergeRoot(s)
	}
}

// Restart rearms an ended root span for a new interval: the whole
// tree's accumulated totals and counts are zeroed (End already merged
// them into the registry) and the root starts timing again. The child
// nodes survive, so a hot loop can allocate one span tree on its first
// iteration and recycle it ever after — StartChild finds the existing
// nodes and the steady state allocates nothing. Restarting a span that
// was never Ended discards its unmerged interval. Nil-safe.
func (s *Span) Restart() {
	if s == nil {
		return
	}
	s.resetTree()
	s.start = s.reg.elapsed()
	s.running = true
}

// resetTree zeroes the per-interval accumulation of the subtree.
func (s *Span) resetTree() {
	s.total, s.count, s.running = 0, 0, false
	for _, c := range s.children {
		c.resetTree()
	}
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Total returns the accumulated duration (0 on nil). A running span reports
// only its completed intervals.
func (s *Span) Total() time.Duration {
	if s == nil {
		return 0
	}
	return s.total
}

// Count returns how many Start/End intervals have accumulated (0 on nil).
func (s *Span) Count() int {
	if s == nil {
		return 0
	}
	return s.count
}

// Children returns the child spans in creation order (nil on nil).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Child returns the child with the given name without starting it, or nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	for _, c := range s.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// Snapshot exports the span subtree rooted here.
func (s *Span) Snapshot() SpanSnapshot {
	if s == nil {
		return SpanSnapshot{}
	}
	return s.snapshotLocked()
}

func (s *Span) snapshotLocked() SpanSnapshot {
	sn := SpanSnapshot{Name: s.name, TotalNS: s.total.Nanoseconds(), Count: s.count}
	for _, c := range s.children {
		sn.Children = append(sn.Children, c.snapshotLocked())
	}
	return sn
}

// mergeRoot folds a finished root tree into the registry's accumulated
// span state, adding totals and counts node by node (matched by name).
func (r *Registry) mergeRoot(root *Span) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	for _, existing := range r.roots {
		if existing.name == root.name {
			mergeInto(existing, root)
			return
		}
	}
	r.roots = append(r.roots, cloneSpan(root, nil))
}

func mergeInto(dst, src *Span) {
	dst.total += src.total
	dst.count += src.count
	for _, sc := range src.children {
		var match *Span
		for _, dc := range dst.children {
			if dc.name == sc.name {
				match = dc
				break
			}
		}
		if match == nil {
			dst.children = append(dst.children, cloneSpan(sc, dst))
		} else {
			mergeInto(match, sc)
		}
	}
}

func cloneSpan(s *Span, parent *Span) *Span {
	c := &Span{name: s.name, parent: parent, total: s.total, count: s.count}
	for _, ch := range s.children {
		c.children = append(c.children, cloneSpan(ch, c))
	}
	return c
}
