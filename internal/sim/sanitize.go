package sim

import (
	"math"

	"thermogater/internal/core"
	"thermogater/internal/invariant"
	"thermogater/internal/power"
)

// This file holds the Runner's composite sanitizer checks — the contracts
// that span more than one subsystem and therefore cannot live inside
// thermal, pdn or vr. Every call site guards on invariant.Enabled, so in
// the default (non-tgsan) build, where Enabled is a false constant, the
// compiler eliminates the branch and everything behind it.
// The checks themselves reuse Runner-held scratch (sanScratch) on the
// success path, so a sanitized run keeps the zero-allocation epoch.

// sanScratch is the sanitizer's reusable scratch. It is built on first
// use, so only tgsan builds ever carry it.
type sanScratch struct {
	seen       []bool    // ranking-permutation marks, sized to the largest domain
	blockTemps []float64 // BlockTemps copy for the bounds check
	vrTemps    []float64 // VRTemps copy for the bounds check
	domLabels  []string  // "domain <name>", one per domain
}

// sanitizer returns the Runner's sanitizer scratch, building it on the
// first call.
func (r *Runner) sanitizer() *sanScratch {
	if r.san != nil {
		return r.san
	}
	s := &sanScratch{domLabels: make([]string, len(r.chip.Domains))}
	for d := range r.chip.Domains {
		s.domLabels[d] = "domain " + r.chip.Domains[d].Name
	}
	maxN := 0
	for _, n := range r.nets {
		maxN = max(maxN, n.Size())
	}
	s.seen = make([]bool, maxN)
	r.san = s
	return s
}

// sanitizeDecision vets a governor decision before it is applied: the
// requested phase count must be representable and the ranking a permutation
// of the domain's regulators.
func (r *Runner) sanitizeDecision(dec *core.Decision) {
	if r.cfg.Policy == core.OffChip {
		return
	}
	san := r.sanitizer()
	for d := range dec.Domains {
		dd := &dec.Domains[d]
		n := r.nets[d].Size()
		invariant.CheckCount("governor phase count", dd.Count, 0, n)
		if len(dd.Ranking) != n {
			invariant.Reportf("vr-gating", d, "domain %d: ranking of %d entries for %d regulators",
				d, len(dd.Ranking), n)
			continue
		}
		seen := san.seen[:n]
		clear(seen)
		for _, li := range dd.Ranking {
			if li < 0 || li >= n || seen[li] {
				invariant.Reportf("vr-gating", d, "domain %d: ranking %v is not a permutation",
					d, dd.Ranking)
				break
			}
			seen[li] = true
		}
	}
}

// sanitizeLeakageReuse checks the premise of substep 0's leakage reuse:
// the thermal field it reads still equals, bit for bit, the epoch-start
// field the shared leakage vector was evaluated on.
func (r *Runner) sanitizeLeakageReuse() {
	san := r.sanitizer()
	san.blockTemps = r.tm.BlockTemps(san.blockTemps)
	for i, t := range san.blockTemps {
		if math.Float64bits(t) != math.Float64bits(r.blockTemps[i]) {
			invariant.Reportf("leakage-reuse", i,
				"block %d is at %v °C at substep 0 but its leakage was evaluated at %v °C", i, t, r.blockTemps[i])
			return
		}
	}
}

// sanitizeSubstep runs once per substep, after the decision has been
// applied and the thermal model stepped. It sweeps every reused scratch
// vector for NaN/Inf, pins temperatures between ambient and the configured
// junction limit, reconstructs the current and conversion-loss maps from
// independent formulas (energy conservation), and checks gating legality:
// a gated regulator must neither carry current nor dissipate loss, and
// active phase counts must respect the network's per-phase current limit.
func (r *Runner) sanitizeSubstep() {
	invariant.CheckFinite("sim.blockPower", r.blockPower)
	invariant.CheckFinite("sim.blockCurrent", r.blockCurrent)
	invariant.CheckFinite("sim.vrPower", r.vrPower)
	invariant.CheckFinite("sim.vrCurrent", r.vrCurrent)
	invariant.CheckFinite("sim.domainCurrent", r.domainCurrent)
	invariant.CheckFinite("sim.sensorVRTemps", r.sensorVRTemps)
	invariant.CheckNonNegative("sim.blockPower", r.blockPower)
	invariant.CheckNonNegative("sim.vrPower", r.vrPower)
	invariant.CheckNonNegative("sim.vrCurrent", r.vrCurrent)
	invariant.CheckNonNegative("sim.domainCurrent", r.domainCurrent)

	// Temperature bounds against the configured junction limit. The
	// package-level thermal hooks only know the ambient floor; the Runner
	// knows the ceiling.
	san := r.sanitizer()
	ambientC := r.cfg.Thermal.AmbientC
	junctionC := r.cfg.Thermal.MaxJunction()
	san.blockTemps = r.tm.BlockTemps(san.blockTemps)
	san.vrTemps = r.tm.VRTemps(san.vrTemps)
	invariant.CheckTempBounds("sim.blockTemps", san.blockTemps, ambientC, junctionC)
	invariant.CheckTempBounds("sim.vrTemps", san.vrTemps, ambientC, junctionC)

	// Energy conservation, part 1: the per-block current map and the
	// per-domain demand must reconstruct from the power map. The domain sum
	// is re-accumulated in reverse order so it is not the same float
	// expression demand() evaluated.
	for i, p := range r.blockPower {
		//lint:ignore floatcheck demand() computes exactly this expression, so exact equality is the contract
		if r.blockCurrent[i] != power.WattsToAmps(p) {
			invariant.Reportf("energy-balance", i,
				"blockCurrent[%d] = %v A does not match %v W at Vdd", i, r.blockCurrent[i], p)
		}
	}
	for d := range r.chip.Domains {
		blocks := r.chip.Domains[d].Blocks
		var sum float64
		for bi := len(blocks) - 1; bi >= 0; bi-- {
			sum += r.blockCurrent[blocks[bi]]
		}
		invariant.CheckBalance("domain demand", r.domainCurrent[d], sum)
	}

	if r.cfg.Policy == core.OffChip {
		return
	}

	// Gating legality and conversion-loss conservation, per domain. With an
	// armed fault injector the legality vocabulary widens (a stuck-on unit
	// legally carries current while "gated", a derated unit has a reduced
	// per-phase limit) but only for the units the schedule actually touched:
	// healthy runs — and healthy units within faulted runs — stay fully
	// strict. See docs/INVARIANTS.md for the fault-class exemption table.
	for d := range r.chip.Domains {
		dom := &r.chip.Domains[d]
		mask := r.masks[d]
		n := r.nets[d].Size()
		dirty := r.flt != nil && r.fltDomDirty[d]
		count := 0
		var lossSum, curSum float64
		for li, on := range mask {
			rid := dom.Regulators[li]
			class := r.faultClass(rid)
			if on {
				if class == invariant.VRStuckOff {
					invariant.Reportf("vr-gating", rid,
						"domain %s: stuck-off regulator was activated", dom.Name)
				}
				count++
				lossSum += r.vrPower[rid]
				curSum += r.vrCurrent[rid]
				//lint:ignore floatcheck a gated healthy regulator is zeroed exactly; the cheap pre-test keeps the hot path allocation-free
			} else if class != invariant.VRHealthy || r.vrPower[rid] != 0 || r.vrCurrent[rid] != 0 {
				invariant.CheckGatedVR(san.domLabels[d], rid, r.vrCurrent[rid], r.vrPower[rid], class)
			}
		}
		lo := 1
		if dirty && r.fltAvailN[d] == 0 {
			lo = 0
		}
		invariant.CheckCount("applied phase count", count, lo, n)
		if count < 1 {
			continue
		}
		iout := r.domainCurrent[d]
		// Per-phase current limit, unless the network is at capacity: with
		// every usable phase already on, legalisation has nothing left to
		// raise. The derated fraction tightens the limit for faulted domains.
		derate := 1.0
		atCapacity := count == n
		if dirty {
			derate = r.fltMinFrac[d]
			atCapacity = atCapacity || count >= r.fltAvailN[d]
		}
		share := iout / float64(count)
		invariant.CheckPhaseShare(san.domLabels[d], d, share, r.nets[d].Design().IMax, derate, atCapacity)
		// Energy conservation, part 2: the per-VR losses injected into the
		// thermal model (count repeated additions of PerVRLoss) must agree
		// with the composite-curve total PlossAt — algebraically identical,
		// differently associated formulas. Faulted domains scale each unit's
		// loss by its derating multiplier, so the expectation is rebuilt the
		// same way, associated in reverse.
		if dirty {
			perVR := r.nets[d].PerVRLoss(iout, count)
			var expected float64
			for li := len(mask) - 1; li >= 0; li-- {
				if mask[li] {
					expected += perVR * r.flt.LossMult(dom.Regulators[li])
				}
			}
			invariant.CheckBalance("domain conversion loss", lossSum, expected)
		} else {
			invariant.CheckBalance("domain conversion loss", lossSum, r.nets[d].PlossAt(iout, count))
		}
		// And the shared currents must re-sum to the domain demand.
		invariant.CheckBalance("domain shared current", curSum, iout)
	}
}
