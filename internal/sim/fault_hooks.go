package sim

import (
	"math"

	"thermogater/internal/core"
	"thermogater/internal/fault"
	"thermogater/internal/floorplan"
	"thermogater/internal/invariant"
	"thermogater/internal/power"
	"thermogater/internal/uarch"
)

// This file holds the Runner's fault-injection hooks: how an armed
// fault.Injector reshapes the activity trace, the sensor readings and the
// regulator gating path. Every hook is reached only when cfg.Faults is
// non-nil and non-empty, so the healthy path is untouched (tgbench records
// the overhead of the nil checks as FaultOverheadPct).

// advanceFaults moves the injector to the given epoch and refreshes the
// per-domain degradation caches.
func (r *Runner) advanceFaults(e int, res *Result) {
	fired, cleared := r.flt.Advance(e)
	if fired > 0 {
		res.FaultEvents += fired
		r.ins.faultFired.Add(float64(fired))
	}
	if cleared > 0 {
		r.ins.faultCleared.Add(float64(cleared))
	}
	r.refreshFaultDomains()
}

// refreshFaultDomains recomputes, per domain, how many regulators remain
// in service, the worst per-phase derating among them, and whether the
// domain needs the degraded gating path at all.
func (r *Runner) refreshFaultDomains() {
	for d := range r.chip.Domains {
		avail := 0
		minFrac := 1.0
		dirty := false
		for _, rid := range r.chip.Domains[d].Regulators {
			switch r.flt.VRStatusOf(rid) {
			case fault.VRFailedOff:
				dirty = true
				continue
			case fault.VRFailedOn:
				dirty = true
			}
			avail++
			if f := r.flt.IMaxFrac(rid); f < minFrac {
				minFrac = f
			}
			if r.flt.IMaxFrac(rid) < 1 || r.flt.LossMult(rid) > 1 {
				dirty = true
			}
		}
		r.fltAvailN[d] = avail
		r.fltMinFrac[d] = minFrac
		r.fltDomDirty[d] = dirty
	}
}

// faultClass maps the injector's per-unit status onto the sanitizer's
// gating-legality vocabulary; VRHealthy when no injector is armed.
func (r *Runner) faultClass(rid int) invariant.VRFaultClass {
	if r.flt == nil {
		return invariant.VRHealthy
	}
	switch r.flt.VRStatusOf(rid) {
	case fault.VRFailedOff:
		return invariant.VRStuckOff
	case fault.VRFailedOn:
		return invariant.VRStuckOn
	}
	if r.flt.IMaxFrac(rid) < 1 || r.flt.LossMult(rid) > 1 {
		return invariant.VRDerated
	}
	return invariant.VRHealthy
}

// applyActivityFaults rewrites the epoch's activity frames in place: a
// gapped core's blocks freeze at their last delivered activity (and its
// bursts vanish — no trace, no recorded bursts); a spiking core's activity
// is scaled up and clamped. Cores delivering normally refresh the
// last-good snapshot the next gap will freeze to.
func (r *Runner) applyActivityFaults(frames []uarch.Frame, res *Result) {
	for c := 0; c < floorplan.NumCores; c++ {
		blocks := r.chip.Domains[c].Blocks
		if r.flt.TraceGap(c) {
			for fi := range frames {
				f := &frames[fi]
				for _, bid := range blocks {
					f.Activity[bid] = r.faultActGood[bid]
				}
				kept := f.Bursts[:0]
				for _, b := range f.Bursts {
					if b.Core != c {
						kept = append(kept, b)
					}
				}
				f.Bursts = kept
				res.TraceGapFrames++
				r.ins.traceGaps.Inc()
			}
			continue
		}
		if amp, ok := r.flt.TraceSpike(c); ok {
			for fi := range frames {
				f := &frames[fi]
				for _, bid := range blocks {
					v := f.Activity[bid] * (1 + amp)
					if v > 1 {
						v = 1
					}
					f.Activity[bid] = v
				}
			}
		}
		last := frames[len(frames)-1]
		for _, bid := range blocks {
			r.faultActGood[bid] = last.Activity[bid]
		}
	}
}

// resolveDecisionFaults re-solves each degraded domain's phase count over
// the surviving regulators: the governor decided against the full network,
// so its count is capped at the survivors and raised to the survivors'
// efficiency-optimal count when the anticipated demand needs it. Demand
// beyond the survivors' combined capacity is recorded as a violation — the
// substep legaliser will spill what it can.
func (r *Runner) resolveDecisionFaults(dec *core.Decision, anticipated []float64, measuring bool, res *Result) {
	for d := range dec.Domains {
		if !r.fltDomDirty[d] {
			continue
		}
		dd := &dec.Domains[d]
		avail := r.fltAvailN[d]
		if dd.Count > avail {
			dd.Count = avail
		}
		if avail == 0 {
			continue
		}
		base, over := r.nets[d].NOnAvailable(anticipated[d], avail)
		if dd.Count < base {
			dd.Count = base
		}
		if over && measuring {
			res.DemandViolations++
		}
	}
}

// applyDomainFaulted is the degraded twin of the healthy per-domain gating
// block in runMeasured: it legalises the count against the surviving,
// possibly derated regulators, never activates a stuck-off unit, always
// activates a stuck-on unit (the mask reflects electrical reality), and
// scales each active unit's conversion loss by its derating multiplier.
// It returns this substep's total loss, output power and efficiency.
func (r *Runner) applyDomainFaulted(d int, dd *core.DomainDecision, measuring bool, res *Result, epochVRLoss []float64) (substepPloss, poutW, eta float64) {
	dom := &r.chip.Domains[d]
	demand := r.domainCurrent[d]
	avail := r.fltAvailN[d]
	mask := r.masks[d]
	for i := range mask {
		mask[i] = false
	}

	count := dd.Count
	if r.cfg.Policy != core.OffChip && avail > 0 {
		if count > avail {
			count = avail
		}
		// Legal minimum over the survivors at the derated per-phase limit.
		imaxD := r.nets[d].Design().IMax * r.fltMinFrac[d]
		if demand > 0 && imaxD > 0 {
			need := int(math.Ceil(demand / imaxD))
			if need > avail {
				if measuring {
					res.DemandViolations++
				}
				need = avail
			}
			if count < need {
				count = need
			}
		}
		if count < 1 {
			count = 1
		}
	}
	if avail == 0 {
		count = 0
		if demand > 0 && measuring {
			res.DemandViolations++
		}
	}

	// Mask: the first count in-service regulators of the ranking, plus
	// every stuck-on regulator regardless of the decision.
	applied := 0
	for _, li := range dd.Ranking {
		if applied >= count {
			break
		}
		if r.flt.VRStatusOf(dom.Regulators[li]) == fault.VRFailedOff {
			continue
		}
		mask[li] = true
		applied++
	}
	active := applied
	for li, rid := range dom.Regulators {
		if r.flt.VRStatusOf(rid) == fault.VRFailedOn && !mask[li] {
			mask[li] = true
			active++
		}
	}
	if active == 0 {
		return 0, 0, 0
	}

	loss := r.nets[d].PerVRLoss(demand, active)
	share := demand / float64(active)
	if share < 0 {
		share = 0
	}
	var lossTotal float64
	for li, on := range mask {
		if !on {
			continue
		}
		rid := dom.Regulators[li]
		l := loss * r.flt.LossMult(rid)
		r.vrPower[rid] = l
		r.vrCurrent[rid] = share
		epochVRLoss[rid] += l
		lossTotal += l
	}
	poutW = demand * power.Vdd
	if poutW > 0 && poutW+lossTotal > 0 {
		eta = poutW / (poutW + lossTotal)
	}
	return lossTotal, poutW, eta
}
