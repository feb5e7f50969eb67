package vr

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrCapacity marks demand beyond the (surviving) network's total IMax —
// callers report it as a brown-out rather than a programming error.
var ErrCapacity = errors.New("vr: demand exceeds capacity")

// HeteroNetwork models a distributed power delivery network whose component
// regulators are *heterogeneous* in topology and electrical characteristics
// (Section 3.1, after Vaisband & Friedman): e.g. a few large buck phases
// carrying the bulk load plus small LDOs for light-load efficiency. Unlike
// the homogeneous Network, equal current sharing is no longer optimal —
// each active regulator gets the share that equalises marginal loss, and
// subset selection searches the configuration space.
type HeteroNetwork struct {
	designs []Design
	curves  []Curve
}

// NewHeteroNetwork builds a network from per-component designs.
func NewHeteroNetwork(designs []Design) (*HeteroNetwork, error) {
	if len(designs) == 0 {
		return nil, errors.New("vr: heterogeneous network needs at least one regulator")
	}
	if len(designs) > 16 {
		// Subset selection enumerates 2^n configurations.
		return nil, fmt.Errorf("vr: heterogeneous network of %d exceeds the 16-component limit", len(designs))
	}
	h := &HeteroNetwork{designs: append([]Design(nil), designs...)}
	h.curves = make([]Curve, 0, len(designs))
	for i, d := range designs {
		if d.IMax < d.IPeak {
			return nil, fmt.Errorf("vr: component %d has IMax %v below IPeak %v", i, d.IMax, d.IPeak)
		}
		c, err := d.Curve()
		if err != nil {
			return nil, fmt.Errorf("vr: component %d: %w", i, err)
		}
		h.curves = append(h.curves, c)
	}
	return h, nil
}

// Size returns the component count.
func (h *HeteroNetwork) Size() int { return len(h.designs) }

// Designs returns the component design points.
func (h *HeteroNetwork) Designs() []Design {
	return append([]Design(nil), h.designs...)
}

// Allocation is one operating configuration of the network.
type Allocation struct {
	// Active marks the regulators that are on.
	Active []bool
	// ShareA is the per-regulator current (zero for gated ones).
	ShareA []float64
	// PlossW is the total conversion loss.
	PlossW float64
	// Eta is the resulting conversion efficiency.
	Eta float64
}

// Allocate finds the loss-minimal configuration supplying iout: for every
// subset that can legally carry the load, the continuous share split that
// equalises marginal loss (water-filling over the quadratic loss curves,
// clamped at the per-component current limits), keeping the best. An error
// is returned when even the full network cannot carry iout.
func (h *HeteroNetwork) Allocate(iout float64) (*Allocation, error) {
	return h.AllocateExcluding(iout, nil)
}

// AllocateExcluding is Allocate over the surviving subset of the network:
// components with failed[i] set are removed from both the capacity budget
// and the subset search, spilling their share to the survivors. The error
// distinguishes demand beyond the surviving capacity (a reportable
// brown-out, wrapped around ErrCapacity) from an internally infeasible
// split. A nil failed slice means every component is in service.
func (h *HeteroNetwork) AllocateExcluding(iout float64, failed []bool) (*Allocation, error) {
	if iout < 0 {
		return nil, fmt.Errorf("vr: negative demand %v", iout)
	}
	n := len(h.designs)
	if failed != nil && len(failed) != n {
		return nil, fmt.Errorf("vr: %d failure flags for %d components", len(failed), n)
	}
	isFailed := func(i int) bool { return failed != nil && failed[i] }
	var capacity float64
	for i, d := range h.designs {
		if !isFailed(i) {
			capacity += d.IMax
		}
	}
	if iout > capacity+1e-12 {
		return nil, fmt.Errorf("%w: demand %vA exceeds surviving capacity %vA", ErrCapacity, iout, capacity)
	}

	best := (*Allocation)(nil)
	for mask := 1; mask < 1<<n; mask++ {
		excluded := false
		var capSum float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				if isFailed(i) {
					excluded = true
					break
				}
				capSum += h.designs[i].IMax
			}
		}
		if excluded {
			continue
		}
		if capSum+1e-12 < iout {
			continue
		}
		shares, loss, ok := h.waterfill(mask, iout)
		if !ok {
			continue
		}
		if best == nil || loss < best.PlossW {
			active := make([]bool, n)
			for i := 0; i < n; i++ {
				active[i] = mask&(1<<i) != 0
			}
			pout := iout * h.curves[0].Vout
			eta := 0.0
			if pout > 0 {
				eta = pout / (pout + loss)
			}
			best = &Allocation{Active: active, ShareA: shares, PlossW: loss, Eta: eta}
		}
	}
	if best == nil {
		return nil, errors.New("vr: no feasible configuration")
	}
	return best, nil
}

// waterfill splits iout across the subset so that marginal losses are
// equal: for loss Lᵢ(x) = aᵢ + bᵢx + cᵢx², dLᵢ/dx = bᵢ + 2cᵢx, so the
// unconstrained optimum sets xᵢ = (λ − bᵢ)/(2cᵢ). Components clamped at
// their current limit are removed and λ re-solved.
func (h *HeteroNetwork) waterfill(mask int, iout float64) (shares []float64, loss float64, ok bool) {
	n := len(h.designs)
	shares = make([]float64, n)
	remaining := iout
	free := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return nil, 0, false
	}
	// Iteratively solve for λ, clamping saturated components.
	for len(free) > 0 && remaining > 1e-12 {
		var sumInvC, sumBinvC float64
		for _, i := range free {
			c := h.curves[i].Loss.Quadratic
			if c <= 0 {
				return nil, 0, false
			}
			sumInvC += 1 / (2 * c)
			sumBinvC += h.curves[i].Loss.Linear / (2 * c)
		}
		lambda := (remaining + sumBinvC) / sumInvC
		clamped := false
		next := free[:0]
		for _, i := range free {
			x := (lambda - h.curves[i].Loss.Linear) / (2 * h.curves[i].Loss.Quadratic)
			if x >= h.designs[i].IMax {
				shares[i] = h.designs[i].IMax
				remaining -= h.designs[i].IMax
				clamped = true
				continue
			}
			next = append(next, i)
		}
		free = next
		if !clamped {
			// Assign the unconstrained optimum.
			for _, i := range free {
				x := (lambda - h.curves[i].Loss.Linear) / (2 * h.curves[i].Loss.Quadratic)
				if x < 0 {
					x = 0
				}
				shares[i] = x
			}
			remaining = 0
			free = nil
		}
	}
	if remaining > 1e-9 {
		return nil, 0, false
	}
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			loss += h.curves[i].Loss.LossAt(shares[i])
			//lint:ignore floatcheck masked-off shares are assigned exactly zero, never computed
		} else if shares[i] != 0 {
			return nil, 0, false
		}
	}
	return shares, loss, true
}

// EffectiveEta returns the efficiency the optimally gated heterogeneous
// network sustains at iout.
func (h *HeteroNetwork) EffectiveEta(iout float64) (float64, error) {
	a, err := h.Allocate(iout)
	if err != nil {
		return 0, err
	}
	return a.Eta, nil
}

// PreferredOrder returns component indices sorted by light-load merit
// (lowest fixed loss first) — the order in which regulators activate as
// demand grows in a heterogeneous network.
func (h *HeteroNetwork) PreferredOrder() []int {
	idx := make([]int, len(h.designs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return h.curves[idx[a]].Loss.Fixed < h.curves[idx[b]].Loss.Fixed
	})
	return idx
}

// MaxCurrent returns the network's total current capacity.
func (h *HeteroNetwork) MaxCurrent() float64 {
	var sum float64
	for _, d := range h.designs {
		sum += d.IMax
	}
	return sum
}

// HomogeneousEquivalent reports whether the network's components are all
// electrically identical (in which case Allocate reduces to the
// homogeneous NOn behaviour, which the tests verify).
func (h *HeteroNetwork) HomogeneousEquivalent() bool {
	for _, d := range h.designs[1:] {
		if math.Abs(d.EtaPeak-h.designs[0].EtaPeak) > 1e-12 ||
			math.Abs(d.IPeak-h.designs[0].IPeak) > 1e-12 ||
			math.Abs(d.IMax-h.designs[0].IMax) > 1e-12 ||
			math.Abs(d.Vout-h.designs[0].Vout) > 1e-12 {
			return false
		}
	}
	return true
}
