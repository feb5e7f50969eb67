package sim

import (
	"fmt"

	"thermogater/internal/core"
	"thermogater/internal/thermal"
	"thermogater/internal/uarch"
)

// profileTheta runs the profiling pass the practical policies rely on
// (Section 6.3): a short execution under rotating regulator gating that
// exposes every regulator to on/off transitions, from which the
// per-regulator proportionality constants θᵢ of Eqn. 2 (ΔTᵢ = θᵢ·ΔPᵢ) are
// extracted by least squares. The pass uses its own activity stream and
// thermal model so the measured run is unaffected. The paper observes that
// θᵢ "do not change if the floorplan is fixed"; the floorplan always is,
// and the fit also depends on the workload (Benchmark or Mix), Seed,
// EpochMS, SubstepMS, Design, Thermal and ProfilingEpochs. Those are the
// fields thetaKey hashes to memoise the fit (thetamemo.go): a Config field
// newly read here must be added to thetaInputs too.
func (r *Runner) profileTheta() (core.ThetaModel, error) {
	if r.cfg.ProfilingEpochs < 3 {
		return core.ThetaModel{}, fmt.Errorf("sim: profiling needs at least 3 epochs, got %d", r.cfg.ProfilingEpochs)
	}
	usim, err := r.cfg.newUarch(r.chip, r.cfg.Seed^0x50f11e)
	if err != nil {
		return core.ThetaModel{}, err
	}
	tm, err := thermal.NewModel(r.chip, r.cfg.Thermal)
	if err != nil {
		return core.ThetaModel{}, err
	}
	tm.Reset(r.cfg.Thermal.AmbientC + 20)

	nVR := len(r.chip.Regulators)
	blockTemps := make([]float64, len(r.chip.Blocks))
	blockPower := make([]float64, len(r.chip.Blocks))
	vrPower := make([]float64, nVR)
	avgActivity := make([]float64, len(r.chip.Blocks))
	// One epoch's frames, refilled in place every profiling epoch.
	frames := make([]uarch.Frame, r.stepsPerEpoch)

	lastLoss := make([]float64, nVR)
	lastTemp := make([]float64, nVR)
	dP := make([][]float64, nVR)
	dT := make([][]float64, nVR)
	for i := 0; i < nVR; i++ {
		// At most one (ΔP, ΔT) sample lands per profiling epoch.
		dP[i] = make([]float64, 0, r.cfg.ProfilingEpochs)
		dT[i] = make([]float64, 0, r.cfg.ProfilingEpochs)
	}

	for e := 0; e < r.cfg.ProfilingEpochs; e++ {
		// The profiling pass is cancellable but not checkpointable: it is
		// cheap to redo, so a canceled pass reports no resumable state.
		if r.ctxErr() != nil {
			return core.ThetaModel{}, &CancelError{Epoch: -1, Cause: cancelCause(r.runCtx)}
		}
		for s := range frames {
			if err := usim.StepInto(r.cfg.SubstepMS, &frames[s]); err != nil {
				return core.ThetaModel{}, err
			}
		}
		averageActivity(frames, avgActivity)
		tm.BlockTemps(blockTemps)
		if _, err := r.pm.Total(avgActivity, blockTemps, blockPower); err != nil {
			return core.ThetaModel{}, err
		}
		r.demand(blockPower)

		// Rotating gating: demand-sized count, rotating membership, so each
		// regulator sees frequent ΔP steps in both directions.
		for i := range vrPower {
			vrPower[i] = 0
		}
		for d := range r.chip.Domains {
			dom := &r.chip.Domains[d]
			n := len(dom.Regulators)
			count := r.nets[d].NOn(r.domainCurrent[d])
			loss := r.nets[d].PerVRLoss(r.domainCurrent[d], count)
			for k := 0; k < count; k++ {
				li := (e + k) % n
				vrPower[dom.Regulators[li]] = loss
			}
		}
		if err := tm.SetPower(blockPower, vrPower); err != nil {
			return core.ThetaModel{}, err
		}
		if err := tm.Step(r.epochS); err != nil {
			return core.ThetaModel{}, err
		}

		for i := 0; i < nVR; i++ {
			temp := tm.VRTemp(i)
			if e > 0 {
				deltaP := vrPower[i] - lastLoss[i]
				// Only power transitions carry information about θ; pure
				// substrate drift (ΔP = 0) would dilute the fit.
				if deltaP > 1e-4 || deltaP < -1e-4 {
					dP[i] = append(dP[i], deltaP)
					dT[i] = append(dT[i], temp-lastTemp[i])
				}
			}
			lastLoss[i] = vrPower[i]
			lastTemp[i] = temp
		}
	}

	for i := range dP {
		if len(dP[i]) < 2 {
			return core.ThetaModel{}, fmt.Errorf("sim: regulator %d saw only %d power transitions during profiling; lengthen ProfilingEpochs", i, len(dP[i]))
		}
	}
	return core.FitTheta(dP, dT)
}
