package pdn

import (
	"errors"
	"fmt"
	"math"

	"thermogater/internal/floorplan"
	"thermogater/internal/invariant"
)

// Network is the power delivery model for one chip: per Vdd-domain, the
// precomputed path resistances from every load block to every component
// regulator.
type Network struct {
	chip *floorplan.Chip
	cfg  Config

	// pathR[d][bi][ri] is the path resistance from domain d's bi-th block
	// to its ri-th regulator: R0 + ρ·distance.
	pathR [][][]float64
	// conc[d][bi] is the concentration factor min(1, ServiceArea/area):
	// the fraction of a block's current that stresses a single grid path.
	conc [][]float64
	// eff[d] caches, per active-VR mask, the per-block effective
	// resistances of domain d. Unsynchronized: parallel callers must
	// partition by domain (see cache.go). All nil when the cache is
	// disabled; effFor then fills effScratch[d] instead.
	eff        []*maskLRU[[]float64]
	effScratch [][]float64
	// effFree[d] is the preallocated slice pool the fill phase of eff[d]
	// draws from: limit slices carved up front so effFor never allocates
	// — below capacity a miss pops here, at capacity it recycles the
	// evicted entry's backing. Flushed entries' slices are lost to the
	// pool, so the first misses after a rebuild fall back to make (cold,
	// annotated).
	effFree [][][]float64
}

// NewNetwork precomputes the grid model for the chip.
func NewNetwork(chip *floorplan.Chip, cfg Config) (*Network, error) {
	if chip == nil {
		return nil, errors.New("pdn: nil chip")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{chip: chip, cfg: cfg}
	n.pathR = make([][][]float64, len(chip.Domains))
	n.eff = make([]*maskLRU[[]float64], len(chip.Domains))
	n.effScratch = make([][]float64, len(chip.Domains))
	n.effFree = make([][][]float64, len(chip.Domains))
	for di := range n.eff {
		if cfg.MaskCacheSize != CacheDisabled {
			limit := cfg.maskCacheSize()
			n.eff[di] = newMaskLRU[[]float64](limit)
			nb := len(chip.Domains[di].Blocks)
			backing := make([]float64, limit*nb)
			free := make([][]float64, limit)
			for s := range free {
				free[s] = backing[s*nb : (s+1)*nb : (s+1)*nb]
			}
			n.effFree[di] = free
		}
		n.effScratch[di] = make([]float64, len(chip.Domains[di].Blocks))
	}
	n.rebuildPaths()
	return n, nil
}

// rebuildPaths recomputes all block→regulator path resistances; the
// placement optimiser calls it after moving regulators. Moving a
// regulator changes every effective resistance derived from the paths,
// so this is the cache invalidation point: every per-mask cache entry
// is flushed here (the cumulative hit/miss counters survive).
func (n *Network) rebuildPaths() {
	for _, c := range n.eff {
		c.flush()
	}
	n.conc = make([][]float64, len(n.chip.Domains))
	for di := range n.chip.Domains {
		d := &n.chip.Domains[di]
		n.pathR[di] = make([][]float64, len(d.Blocks))
		n.conc[di] = make([]float64, len(d.Blocks))
		for bi, bid := range d.Blocks {
			b := &n.chip.Blocks[bid]
			n.conc[di][bi] = 1.0
			if a := b.R.Area(); a > n.cfg.ServiceAreaMM2 {
				n.conc[di][bi] = n.cfg.ServiceAreaMM2 / a
			}
			rs := make([]float64, len(d.Regulators))
			for ri, rid := range d.Regulators {
				// Distance from the regulator to the block footprint:
				// loads spread across the block, so the relevant length is
				// the average of centre and edge distances.
				reg := &n.chip.Regulators[rid]
				dc := b.R.Center().DistanceTo(reg.Pos)
				de := b.R.DistanceToPoint(reg.Pos)
				dist := 0.5 * (dc + de)
				rs[ri] = n.cfg.R0Ohm + n.cfg.RhoOhmPerMM*dist
			}
			n.pathR[di][bi] = rs
		}
	}
}

// Chip returns the floorplan this network models.
func (n *Network) Chip() *floorplan.Chip { return n.chip }

// Config returns the electrical configuration.
func (n *Network) Config() Config { return n.cfg }

// PathResistance returns the precomputed path resistance from the domain's
// bi-th block to its ri-th regulator (indices into Domain.Blocks and
// Domain.Regulators).
func (n *Network) PathResistance(domain, bi, ri int) float64 {
	return n.pathR[domain][bi][ri]
}

// EffectiveResistance returns the impedance the domain's bi-th block sees
// given the active mask over the domain's regulators (indexed like
// Domain.Regulators). It is the parallel combination of the per-regulator
// paths; with no active regulator it returns +Inf.
func (n *Network) EffectiveResistance(domain, bi int, active []bool) float64 {
	nActive := 0
	var gsum float64
	for ri, a := range active {
		if a {
			nActive++
			gsum += 1 / n.pathR[domain][bi][ri]
		}
	}
	if nActive == 0 || !(gsum > 0) {
		// No active regulator, or every active path has infinite
		// resistance: the block sees an open circuit either way.
		return math.Inf(1)
	}
	return 1 / gsum
}

// effFor returns the per-block effective resistances of the domain for
// the given active mask, cached by mask key. A miss computes each block
// with EffectiveResistance — regulators summed in ascending index order
// — so cached and freshly-computed values are bit-identical. The
// returned slice is owned by the cache and valid only until the next
// effFor call for the same domain: a later miss may recycle its backing
// array for the evicted entry's replacement.
func (n *Network) effFor(domain int, active []bool) []float64 {
	d := &n.chip.Domains[domain]
	if n.eff[domain] == nil { // cache disabled: recompute into scratch
		effR := n.effScratch[domain]
		for bi := range d.Blocks {
			effR[bi] = n.EffectiveResistance(domain, bi, active)
		}
		return effR
	}
	key := MaskKey(active)
	if effR, ok := n.eff[domain].get(key); ok {
		return effR
	}
	effR, _ := n.eff[domain].evictIfFull()
	if effR == nil {
		if fl := n.effFree[domain]; len(fl) > 0 {
			effR = fl[len(fl)-1]
			n.effFree[domain] = fl[:len(fl)-1]
		} else {
			effR = make([]float64, len(d.Blocks)) //perf:alloc refill after a rebuild flush dropped the pooled slices; steady state never reaches this
		}
	}
	for bi := range d.Blocks {
		effR[bi] = n.EffectiveResistance(domain, bi, active)
	}
	n.eff[domain].put(key, effR)
	return effR
}

// CacheStats returns the cumulative per-mask cache counters summed over
// all domains.
func (n *Network) CacheStats() CacheStats {
	var total CacheStats
	for _, c := range n.eff {
		if c != nil {
			total.add(c.stats)
		}
	}
	return total
}

// DomainNoise is the steady-state voltage noise profile of one domain.
type DomainNoise struct {
	// MaxPct is the worst per-block noise in percent of nominal Vdd.
	MaxPct float64
	// MaxBlock is the global block ID where the maximum occurs (-1 when
	// the domain draws no current).
	MaxBlock int
	// PerBlockPct is indexed like Domain.Blocks.
	PerBlockPct []float64
}

// Emergency reports whether the profile exceeds the 10% threshold.
func (dn DomainNoise) Emergency() bool {
	return dn.MaxPct > EmergencyThresholdPct
}

// SteadyNoise computes the IR-drop noise profile of a domain given the
// per-block currents (amps, indexed by global block ID) and the active
// mask over the domain's regulators. At least one regulator must be
// active.
func (n *Network) SteadyNoise(domain int, blockCurrent []float64, active []bool) (DomainNoise, error) {
	var out DomainNoise
	if err := n.SteadyNoiseInto(domain, blockCurrent, active, &out); err != nil {
		return DomainNoise{}, err
	}
	return out, nil
}

// SteadyNoiseInto is SteadyNoise writing into a caller-owned profile,
// reusing out.PerBlockPct when it has capacity. The simulator's pdn
// phase calls this once per substep per domain; with the per-mask
// resistance cache warm it allocates nothing.
func (n *Network) SteadyNoiseInto(domain int, blockCurrent []float64, active []bool, out *DomainNoise) error {
	d := &n.chip.Domains[domain]
	if len(blockCurrent) != len(n.chip.Blocks) {
		return fmt.Errorf("pdn: %d block currents, chip has %d blocks",
			len(blockCurrent), len(n.chip.Blocks))
	}
	if len(active) != len(d.Regulators) {
		return fmt.Errorf("pdn: %d active flags, domain %s has %d regulators",
			len(active), d.Name, len(d.Regulators))
	}
	anyActive := false
	for _, a := range active {
		anyActive = anyActive || a
	}
	if !anyActive {
		return fmt.Errorf("pdn: domain %s has no active regulator", d.Name)
	}

	var domCurrent float64
	for _, bid := range d.Blocks {
		if c := blockCurrent[bid]; c > 0 {
			domCurrent += c
		}
	}
	effR := n.effFor(domain, active)
	out.MaxPct, out.MaxBlock = 0, -1
	if cap(out.PerBlockPct) < len(d.Blocks) {
		out.PerBlockPct = make([]float64, len(d.Blocks))
	} else {
		out.PerBlockPct = out.PerBlockPct[:len(d.Blocks)]
	}
	shared := domCurrent * n.cfg.RSharedOhm
	for bi, bid := range d.Blocks {
		i := blockCurrent[bid]
		if i < 0 {
			i = 0
		}
		i *= n.conc[domain][bi]
		// An idle block only sees the shared-rail drop; skipping the
		// product also avoids 0·Inf = NaN when no regulator is active.
		drop := shared
		if i > 0 {
			drop += i * effR[bi]
		}
		pct := 100 * drop / n.cfg.VddV
		out.PerBlockPct[bi] = pct
		if pct > out.MaxPct {
			out.MaxPct = pct
			out.MaxBlock = bid
		}
	}
	if invariant.Enabled {
		invariant.CheckFinite("pdn.SteadyNoise pct", out.PerBlockPct)
		invariant.CheckDroopPct("pdn.SteadyNoise max", out.MaxPct)
	}
	return nil
}

// BurstPeakPct returns the peak noise reached when a di/dt burst surges
// the given block's current by surgeAmps for burstCycles: the steady drop
// plus the surge through both the grid and the transient impedance the
// lagging regulators present.
func (n *Network) BurstPeakPct(domain, bi int, steadyPct, surgeAmps float64, active []bool, burstCycles int, clockGHz float64) float64 {
	if surgeAmps <= 0 {
		return steadyPct
	}
	reff := n.effFor(domain, active)[bi]
	if math.IsInf(reff, 1) {
		return math.Inf(1)
	}
	z := reff + n.cfg.ZTransientOhm*n.cfg.TransientFactor(burstCycles, clockGHz)
	peak := steadyPct + 100*surgeAmps*z/n.cfg.VddV
	if invariant.Enabled {
		invariant.CheckDroopPct("pdn.BurstPeakPct", peak)
	}
	return peak
}

// VRCriticality scores each of a domain's regulators by how much voltage
// noise relief it provides to the domain's present current map: the
// current-weighted conductance of its paths to every load block. OracV
// keeps the non highest-scoring (i.e. closest-to-the-noise) regulators on.
func (n *Network) VRCriticality(domain int, blockCurrent []float64) ([]float64, error) {
	crit := make([]float64, len(n.chip.Domains[domain].Regulators))
	if err := n.VRCriticalityInto(domain, blockCurrent, crit); err != nil {
		return nil, err
	}
	return crit, nil
}

// VRCriticalityInto is VRCriticality writing into dst, which must be
// sized to the domain's regulator count. Per-epoch callers (the OracV
// governor) hold a reusable buffer so the scoring allocates nothing.
func (n *Network) VRCriticalityInto(domain int, blockCurrent, dst []float64) error {
	d := &n.chip.Domains[domain]
	if len(blockCurrent) != len(n.chip.Blocks) {
		return fmt.Errorf("pdn: %d block currents, chip has %d blocks",
			len(blockCurrent), len(n.chip.Blocks))
	}
	if len(dst) != len(d.Regulators) {
		return fmt.Errorf("pdn: criticality buffer sized %d, domain has %d regulators",
			len(dst), len(d.Regulators))
	}
	for ri := range dst {
		dst[ri] = 0
	}
	for bi, bid := range d.Blocks {
		i := blockCurrent[bid] * n.conc[domain][bi]
		if i <= 0 {
			continue
		}
		for ri := range d.Regulators {
			dst[ri] += i / n.pathR[domain][bi][ri]
		}
	}
	return nil
}

// AllOnMask returns a fully-active regulator mask for the domain.
func (n *Network) AllOnMask(domain int) []bool {
	mask := make([]bool, len(n.chip.Domains[domain].Regulators))
	for i := range mask {
		mask[i] = true
	}
	return mask
}
