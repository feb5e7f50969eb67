// Package cache is a tglint fixture for the cacheflush pass. The type
// names match the default rules by base name: Network{pathR, conc} and
// Regulator{Pos} must flush with rebuildPaths.
package cache

type Network struct {
	pathR []float64
	conc  int
	dirty bool
}

// rebuildPaths is the flush: it may write the guarded fields itself
// (flush-function exemption).
func (n *Network) rebuildPaths() {
	for i := range n.pathR {
		n.pathR[i] = 0
	}
	n.dirty = false
}

// setConcOK: mutation immediately followed by the flush.
func (n *Network) setConcOK(c int) {
	n.conc = c
	n.rebuildPaths()
}

// setConcBad: the cache keyed on conc is now stale.
func (n *Network) setConcBad(c int) {
	n.conc = c // want "not followed by rebuildPaths"
}

// condFlush: the flush must post-dominate the mutation; one unflushed
// path to return is enough to report.
func (n *Network) condFlush(c int) {
	n.pathR[0] = 1.5 // want "not followed by rebuildPaths"
	if c > 0 {
		n.rebuildPaths()
	}
}

// bothBranches: every path from the mutation reaches a flush.
func (n *Network) bothBranches(c int) {
	n.conc = c
	if c > 0 {
		n.rebuildPaths()
	} else {
		n.rebuildPaths()
	}
}

// NewNetwork mutates a fresh local — constructors are exempt.
func NewNetwork(nr int) *Network {
	n := &Network{pathR: make([]float64, nr)}
	n.conc = nr
	return n
}

type Regulator struct {
	Pos int
}

// moveRegOK is the placement-optimiser shape: move, then rebuild.
func (n *Network) moveRegOK(r *Regulator, pos int) {
	r.Pos = pos
	n.rebuildPaths()
}

// moveRegBad strands every cache keyed on the old position.
func moveRegBad(r *Regulator, pos int) {
	r.Pos = pos // want "not followed by rebuildPaths"
}
