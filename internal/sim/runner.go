package sim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"thermogater/internal/aging"
	"thermogater/internal/core"
	"thermogater/internal/dvfs"
	"thermogater/internal/fault"
	"thermogater/internal/floorplan"
	"thermogater/internal/invariant"
	"thermogater/internal/pdn"
	"thermogater/internal/power"
	"thermogater/internal/telemetry"
	"thermogater/internal/thermal"
	"thermogater/internal/uarch"
	"thermogater/internal/vr"
	"thermogater/internal/workload"
)

// Runner executes one configured simulation.
type Runner struct {
	cfg  Config
	chip *floorplan.Chip
	pm   *power.Model
	tm   *thermal.Model
	grid *pdn.Network
	nets []*vr.Network
	gov  *core.Governor

	stepsPerEpoch int
	epochS        float64
	substepS      float64

	// Scratch state reused across substeps.
	blockTemps    []float64
	blockLeak     []float64 // per block, leakage at blockTemps before DVFS scaling
	vrTemps       []float64
	sensorVRTemps []float64
	blockPower    []float64
	blockCurrent  []float64
	vrPower       []float64
	vrCurrent     []float64
	wear          *aging.Tracker
	rng           *workload.RNG
	vf            *dvfs.Governor
	dynScale      []float64 // per block, DVFS dynamic-power multiplier
	leakScale     []float64 // per block, DVFS leakage multiplier
	domainCurrent []float64
	prevDomainCur []float64
	perVRLoss     []float64
	masks         [][]bool

	// Robustness machinery. flt is nil unless a fault schedule is armed;
	// wd wraps every transient thermal step with divergence detection;
	// resume, when non-nil, holds the checkpoint the next Run continues
	// from. The flt* caches are refreshed once per epoch by
	// refreshFaultDomains.
	flt          *fault.Injector
	wd           *thermal.Watchdog
	faultActGood []float64
	fltAvailN    []int
	fltMinFrac   []float64
	fltDomDirty  []bool
	resume       *Checkpoint

	// Instrumentation. ins caches the telemetry handles (all nil-safe when
	// telemetry is disabled); the solver counters below are plain ints so
	// counting costs one increment whether or not telemetry is attached.
	ins                *instruments
	pdnSteadySolves    int64
	pdnTransientSolves int64

	// Deferred PDN phase state: stepCurrents/stepMasks capture each
	// substep's current map and gating masks so the voltage noise of the
	// whole epoch is evaluated once, after the substep loop (see pdnEpoch).
	stepCurrents [][]float64
	stepMasks    [][][]bool
	pdnNoise     pdn.DomainNoise

	// Per-epoch hot-path scratch, sized once in New so the steady-state
	// epoch loop (stepEpoch, produceEpoch) allocates nothing — the
	// contract alloc_test.go checks.
	avgActivity     []float64
	avgBlockPower   []float64
	avgBlockCurrent []float64
	avgDomainCur    []float64
	epochVRLoss     []float64
	epochDomEmerg   []bool
	frameCur        [][]float64   // per-substep oracle current maps
	frames          []uarch.Frame // recycled epoch frame buffer
	emgMasks        [][]bool      // domainEmergency's tentative masks
	emgNoise        []pdn.DomainNoise
	govIn           core.Inputs     // reused governor inputs, closures bound once
	epochSpan       *telemetry.Span // recycled per-epoch span tree
	san             *sanScratch     // tgsan check scratch, built on first use

	// Per-run epoch-loop state, assembled by beginRun, advanced one
	// epoch per stepEpoch call, aggregated by finishRun.
	runMS          *MeasureState
	runStart       int
	runNEpochs     int
	runSampleEvery int
	usim           *uarch.Simulator

	// runCtx is the cancellation context of the current run (nil when the
	// run was started without one — see ctxErr). The epoch loop polls it
	// to capture a resumable uarch snapshot once cancellation is requested
	// and to stop at the next boundary that has one.
	runCtx context.Context
}

// pdnCell is one (substep, domain) result of the deferred PDN phase,
// folded into the epoch accumulators by pdnEpoch.
type pdnCell struct {
	noise      float64 // max of the steady MaxPct and any burst peak
	maxBlock   int     // global block ID of the steady-noise maximum
	burstDwell float64 // seconds of burst excursions above threshold
	steadyEmg  bool    // steady IR drop crossed the emergency threshold
	burstEmg   bool    // a burst peak crossed it while the steady drop did not
	dead       bool    // every regulator stuck off; standing emergency
}

// New builds a runner. The floorplan, power model, thermal network, PDN,
// per-domain regulator networks and governor are all constructed from the
// configuration.
func New(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	chip, err := floorplan.BuildPOWER8()
	if err != nil {
		return nil, err
	}
	pm, err := power.NewModel(chip)
	if err != nil {
		return nil, err
	}
	tm, err := thermal.NewModel(chip, cfg.Thermal)
	if err != nil {
		return nil, err
	}
	grid, err := pdn.NewNetwork(chip, cfg.PDN)
	if err != nil {
		return nil, err
	}
	nets := make([]*vr.Network, len(chip.Domains))
	for i, d := range chip.Domains {
		nw, err := vr.NewNetwork(cfg.Design, len(d.Regulators))
		if err != nil {
			return nil, err
		}
		nets[i] = nw
	}
	gcfg := cfg.Governor
	gcfg.Policy = cfg.Policy
	gcfg.EpochMS = cfg.EpochMS
	gcfg.Seed ^= cfg.Seed
	gov, err := core.NewGovernor(chip, nets, grid, gcfg)
	if err != nil {
		return nil, err
	}
	// The burst→domain mapping below relies on core domains being the
	// first eight domain IDs in core order.
	for c := 0; c < floorplan.NumCores; c++ {
		if chip.Domains[c].Kind != floorplan.CoreDomain {
			return nil, fmt.Errorf("sim: domain %d is not core domain %d", c, c)
		}
	}
	r := &Runner{
		cfg:           cfg,
		chip:          chip,
		pm:            pm,
		tm:            tm,
		grid:          grid,
		nets:          nets,
		gov:           gov,
		stepsPerEpoch: int(math.Round(cfg.EpochMS / cfg.SubstepMS)),
		epochS:        cfg.EpochMS / 1000,
		substepS:      cfg.SubstepMS / 1000,
		blockTemps:    make([]float64, len(chip.Blocks)),
		blockLeak:     make([]float64, len(chip.Blocks)),
		vrTemps:       make([]float64, len(chip.Regulators)),
		sensorVRTemps: make([]float64, len(chip.Regulators)),
		blockPower:    make([]float64, len(chip.Blocks)),
		blockCurrent:  make([]float64, len(chip.Blocks)),
		vrPower:       make([]float64, len(chip.Regulators)),
		vrCurrent:     make([]float64, len(chip.Regulators)),
		domainCurrent: make([]float64, len(chip.Domains)),
		prevDomainCur: make([]float64, len(chip.Domains)),
		perVRLoss:     make([]float64, len(chip.Regulators)),
		rng:           workload.NewRNG(cfg.Seed ^ 0x53e2),
		ins:           newInstruments(cfg.Telemetry),
	}
	r.masks = make([][]bool, len(chip.Domains))
	for d := range r.masks {
		r.masks[d] = make([]bool, len(chip.Domains[d].Regulators))
	}

	// Per-epoch scratch and the deferred-PDN capture buffers: everything
	// the epoch loop touches is sized here, once, so stepEpoch runs
	// allocation-free in steady state. The frames' interior slices
	// (Activity, IPC, Bursts) grow to their steady sizes during the first
	// epoch and are recycled by uarch.StepInto from then on.
	r.avgActivity = make([]float64, len(chip.Blocks))
	r.avgBlockPower = make([]float64, len(chip.Blocks))
	r.avgBlockCurrent = make([]float64, len(chip.Blocks))
	r.avgDomainCur = make([]float64, len(chip.Domains))
	r.epochVRLoss = make([]float64, len(chip.Regulators))
	r.epochDomEmerg = make([]bool, len(chip.Domains))
	r.frameCur = make([][]float64, r.stepsPerEpoch)
	for s := range r.frameCur {
		r.frameCur[s] = make([]float64, len(chip.Blocks))
	}
	r.frames = make([]uarch.Frame, r.stepsPerEpoch)
	r.emgMasks = make([][]bool, len(chip.Domains))
	for d := range r.emgMasks {
		r.emgMasks[d] = make([]bool, len(chip.Domains[d].Regulators))
	}
	r.emgNoise = make([]pdn.DomainNoise, len(chip.Domains))
	r.stepCurrents = make([][]float64, r.stepsPerEpoch)
	r.stepMasks = make([][][]bool, r.stepsPerEpoch)
	for s := range r.stepCurrents {
		r.stepCurrents[s] = make([]float64, len(chip.Blocks))
		r.stepMasks[s] = make([][]bool, len(chip.Domains))
		for d := range r.stepMasks[s] {
			r.stepMasks[s][d] = make([]bool, len(chip.Domains[d].Regulators))
		}
	}
	// The governor inputs are reused every epoch: the slice fields alias
	// the runner's scratch (refreshed in place each epoch) and the two
	// callbacks are bound once so the decision phase allocates nothing.
	r.govIn = core.Inputs{
		PrevDomainCurrent:   r.prevDomainCur,
		SensorVRTemps:       r.sensorVRTemps,
		VRTemps:             r.vrTemps,
		FutureDomainCurrent: r.avgDomainCur,
		FutureBlockCurrent:  r.avgBlockCurrent,
		PredictVRTempOn:     r.predictVRTempOn,
	}
	r.govIn.DomainEmergency = func(d, count int, ranking []int) bool {
		return r.domainEmergency(d, count, ranking, r.frameCur, r.frames)
	}
	if cfg.TrackAging {
		tr, err := aging.NewTracker(len(chip.Regulators), aging.DefaultModel())
		if err != nil {
			return nil, err
		}
		r.wear = tr
	}
	r.dynScale = make([]float64, len(chip.Blocks))
	r.leakScale = make([]float64, len(chip.Blocks))
	for i := range r.dynScale {
		r.dynScale[i] = 1
		r.leakScale[i] = 1
	}
	if cfg.DVFS != nil {
		vf, err := dvfs.NewGovernor(floorplan.NumCores, *cfg.DVFS)
		if err != nil {
			return nil, err
		}
		r.vf = vf
	}
	r.wd = thermal.NewWatchdog(tm)
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		groups := make([][]int, len(chip.Domains))
		for d := range chip.Domains {
			groups[d] = append([]int(nil), chip.Domains[d].Regulators...)
		}
		inj, err := fault.New(cfg.Faults, fault.Topology{
			NumVRs:       len(chip.Regulators),
			NumCores:     floorplan.NumCores,
			SensorGroups: groups,
		}, cfg.Seed^0x9f4a)
		if err != nil {
			return nil, err
		}
		r.flt = inj
		r.faultActGood = make([]float64, len(chip.Blocks))
		r.fltAvailN = make([]int, len(chip.Domains))
		r.fltMinFrac = make([]float64, len(chip.Domains))
		r.fltDomDirty = make([]bool, len(chip.Domains))
		r.refreshFaultDomains()
	}
	return r, nil
}

// blockPowerScaled computes total per-block power from the activity and
// the per-block leakage (power.Model.Leakage at the current temperature
// field), with the current DVFS scaling applied: dynamic power scales with
// f·V², leakage with V. The caller evaluates leakage once per temperature
// field and passes it to every power map built on that field.
func (r *Runner) blockPowerScaled(activity, leak, dst []float64) ([]float64, error) {
	dyn, err := r.pm.Dynamic(activity, dst)
	if err != nil {
		return nil, err
	}
	if len(leak) != len(dyn) {
		return nil, fmt.Errorf("sim: %d leakage values for %d blocks", len(leak), len(dyn))
	}
	for i := range dyn {
		dyn[i] = dyn[i]*r.dynScale[i] + leak[i]*r.leakScale[i]
	}
	return dyn, nil
}

// refreshLeakage reads the block temperatures and evaluates their leakage
// into blockLeak.
func (r *Runner) refreshLeakage() error {
	r.tm.BlockTemps(r.blockTemps)
	_, err := r.pm.Leakage(r.blockTemps, r.blockLeak)
	return err
}

// updateDVFS feeds per-core utilisation into the V/f governor and refreshes
// the per-block scaling factors.
func (r *Runner) updateDVFS(avgActivity []float64) error {
	if r.vf == nil {
		return nil
	}
	cfg := r.vf.Config()
	for c := 0; c < floorplan.NumCores; c++ {
		var util float64
		var n int
		for _, bid := range r.chip.Domains[c].Blocks {
			if r.chip.Blocks[bid].Kind == floorplan.Logic {
				util += avgActivity[bid]
				n++
			}
		}
		if n > 0 {
			util /= float64(n)
		}
		if _, err := r.vf.Observe(c, util); err != nil {
			return err
		}
		p := r.vf.Point(c)
		ds := cfg.DynamicScale(p)
		ls := cfg.LeakageScale(p)
		for _, bid := range r.chip.Domains[c].Blocks {
			r.dynScale[bid] = ds
			r.leakScale[bid] = ls
		}
	}
	return nil
}

// Chip exposes the floorplan (useful to callers labelling results).
func (r *Runner) Chip() *floorplan.Chip { return r.chip }

// produceEpoch advances the activity simulator one epoch, refilling the
// runner's recycled frame buffer in place. Everything the physics loop
// retains across epochs (stepCurrents, the worst-noise snapshot,
// uarch.State) is copied out of the frames, never aliased. Once
// cancellation is requested it also returns the uarch snapshot the
// cancellation checkpoint resumes from.
func (r *Runner) produceEpoch(e int) ([]uarch.Frame, *uarch.State, error) {
	for s := range r.frames {
		if err := r.usim.StepInto(r.cfg.SubstepMS, &r.frames[s]); err != nil {
			return nil, nil, err
		}
	}
	if r.ctxErr() != nil {
		return r.frames, r.usim.State(), nil
	}
	return r.frames, nil, nil
}

// averageActivity fills dst with the epoch-average per-block activity.
func averageActivity(frames []uarch.Frame, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, f := range frames {
		for i, a := range f.Activity {
			dst[i] += a
		}
	}
	inv := 1 / float64(len(frames))
	for i := range dst {
		dst[i] *= inv
	}
}

// demand computes per-domain current and per-block current for the given
// block power map.
func (r *Runner) demand(blockPower []float64) {
	for i, p := range blockPower {
		r.blockCurrent[i] = power.WattsToAmps(p)
	}
	for d := range r.chip.Domains {
		var sum float64
		for _, bid := range r.chip.Domains[d].Blocks {
			sum += r.blockCurrent[bid]
		}
		r.domainCurrent[d] = sum
	}
}

// predictVRTempOn is the oracle's thermal predictor: the regulator node is
// a first-order system toward (host block temperature + P/G), so its
// temperature at the next decision point has a closed form.
func (r *Runner) predictVRTempOn(vrID int, plossW float64) float64 {
	cfg := r.cfg.Thermal
	host := r.chip.Regulators[vrID].NearestBlock
	tHost := r.tm.BlockTemp(host)
	target := tHost + plossW/cfg.GRegulatorWPerK
	tau := cfg.RegulatorCapJPerK / cfg.GRegulatorWPerK
	decay := math.Exp(-r.epochS / tau)
	return target + (r.tm.VRTemp(vrID)-target)*decay
}

// buildMask fills the domain's mask with the first count entries of the
// ranking.
func (r *Runner) buildMask(d, count int, ranking []int) []bool {
	mask := r.masks[d]
	for i := range mask {
		mask[i] = false
	}
	for i := 0; i < count && i < len(ranking); i++ {
		mask[ranking[i]] = true
	}
	return mask
}

// domainEmergency is the ground-truth emergency oracle for the upcoming
// epoch, evaluated at substep resolution: the steady IR drop under the
// tentative selection for each substep's true current map, plus each
// substep's actual burst peaks. Substep resolution matters: a prediction
// from epoch-average currents misses the within-epoch activity peaks that
// cause most emergencies, and the paper's OracVT converges to the all-on
// noise profile precisely because its oracle prediction is perfect.
func (r *Runner) domainEmergency(d, count int, ranking []int, frameCurrents [][]float64, frames []uarch.Frame) bool {
	if count < 1 {
		return false
	}
	mask := r.emgMasks[d]
	for i := range mask {
		mask[i] = false
	}
	for i := 0; i < count && i < len(ranking); i++ {
		mask[ranking[i]] = true
	}
	for s, f := range frames {
		cur := frameCurrents[s]
		r.pdnSteadySolves++
		dn := &r.emgNoise[d]
		if err := r.grid.SteadyNoiseInto(d, cur, mask, dn); err != nil {
			return false
		}
		if dn.Emergency() {
			return true
		}
		for _, b := range f.Bursts {
			if b.Core != r.burstDomainCore(d) {
				continue
			}
			bi, surge := r.burstTarget(d, b, cur)
			r.pdnTransientSolves++
			peak := r.grid.BurstPeakPct(d, bi, dn.PerBlockPct[bi], surge, mask, b.Cycles, uarch.ClockGHz)
			if peak > pdn.EmergencyThresholdPct {
				return true
			}
		}
	}
	return false
}

// pdnSubstep evaluates domain d's voltage noise at substep s of the epoch
// from the captured current map and gating mask.
func (r *Runner) pdnSubstep(d, s int, f uarch.Frame) (pdnCell, error) {
	if r.flt != nil && r.fltAvailN[d] == 0 {
		// Dead domain (every regulator stuck off): there is no active
		// regulator to solve the grid against; the blocks are browned
		// out, which counts as a standing emergency. The demand
		// violation was recorded when the decision was applied.
		return pdnCell{maxBlock: -1, dead: true}, nil
	}
	cur := r.stepCurrents[s]
	mask := r.stepMasks[s][d]
	dn := &r.pdnNoise
	r.pdnSteadySolves++
	if err := r.grid.SteadyNoiseInto(d, cur, mask, dn); err != nil {
		return pdnCell{}, err
	}
	c := pdnCell{noise: dn.MaxPct, maxBlock: dn.MaxBlock, steadyEmg: dn.Emergency()}
	// Burst peaks within this substep.
	t0 := f.TimeMS
	t1 := f.TimeMS + f.DtMS
	for _, b := range f.Bursts {
		if b.Core != r.burstDomainCore(d) || b.TimeMS < t0 || b.TimeMS >= t1 {
			continue
		}
		bi, surge := r.burstTarget(d, b, cur)
		r.pdnTransientSolves++
		peak := r.grid.BurstPeakPct(d, bi, dn.PerBlockPct[bi], surge, mask, b.Cycles, uarch.ClockGHz)
		if peak > c.noise {
			c.noise = peak
		}
		if peak > pdn.EmergencyThresholdPct && !c.steadyEmg {
			c.burstDwell += float64(b.Cycles) / (uarch.ClockGHz * 1e9)
			c.burstEmg = true
		}
	}
	return c, nil
}

// pdnEpoch is the deferred PDN phase: the noise of every (substep, domain)
// pair of the just-executed epoch, evaluated and folded into the epoch
// accumulators in (substep, domain) order. Deferring is legal because
// nothing inside the epoch reads the PDN's outputs: the masks and
// currents are captured per substep, and the results feed only the
// measurement accumulators and the end-of-epoch governor feedback. Each
// domain's grid caches still see its substeps in order. A substep counts
// toward emergency time once, no matter how many domains cross the
// threshold; short burst excursions add their own (cycle-scale) dwell.
func (r *Runner) pdnEpoch(frames []uarch.Frame, measuring bool, sampleEvery, msBase int, epochDomEmerg []bool, epochMaxNoise *float64, ms *MeasureState, res *Result) error {
	for s, f := range frames {
		substepEmergency := false
		var burstDwell float64
		var substepNoise float64
		for d := range r.chip.Domains {
			c, err := r.pdnSubstep(d, s, f)
			if err != nil {
				return err
			}
			if c.dead {
				substepEmergency = true
				epochDomEmerg[d] = true
				continue
			}
			if c.steadyEmg {
				substepEmergency = true
				epochDomEmerg[d] = true
			}
			if c.burstEmg {
				epochDomEmerg[d] = true
			}
			burstDwell += c.burstDwell
			if c.noise > *epochMaxNoise {
				*epochMaxNoise = c.noise
			}
			if c.noise > substepNoise {
				substepNoise = c.noise
			}
			if measuring && c.noise > ms.WorstNoise {
				ms.WorstNoise = c.noise
				res.WorstNoise = r.snapshotWorstNoise(d, c.maxBlock, r.stepCurrents[s], r.stepMasks[s][d], f, frames)
			}
		}
		if measuring {
			// msBase+s reconstructs what MeasuredSteps read at substep s:
			// it increments once per measured substep, and measuring is
			// constant within an epoch.
			if (msBase+s)%sampleEvery == 0 && substepNoise > ms.SampledWorst {
				ms.SampledWorst = substepNoise
			}
			if substepEmergency {
				ms.EmergencyTime += r.substepS
			} else if burstDwell > 0 {
				if burstDwell > r.substepS {
					burstDwell = r.substepS
				}
				ms.EmergencyTime += burstDwell
			}
		}
	}
	return nil
}

// burstDomainCore maps a core-domain ID to its core index (-1 for L3
// domains, which see no core bursts).
func (r *Runner) burstDomainCore(d int) int {
	if r.chip.Domains[d].Kind == floorplan.CoreDomain {
		return d
	}
	return -1
}

// burstTarget picks the block a core burst lands on — the domain block
// currently drawing the most current — and the surge in amps.
func (r *Runner) burstTarget(d int, b uarch.BurstEvent, blockCurrent []float64) (bi int, surgeAmps float64) {
	dom := &r.chip.Domains[d]
	best, bestI := 0, -1.0
	for i, bid := range dom.Blocks {
		if blockCurrent[bid] > bestI {
			bestI = blockCurrent[bid]
			best = i
		}
	}
	if bestI < 0 {
		bestI = 0
	}
	return best, b.Amp * bestI
}

// legalCount returns the minimal active count that can legally carry the
// demand (per-phase current limit), reporting an overload when even the
// full network cannot.
func (r *Runner) legalCount(d int, demandA float64) (int, bool) {
	n := r.nets[d].Size()
	imax := r.nets[d].Design().IMax
	if demandA <= 0 {
		return 1, false
	}
	if !(imax > 0) {
		// A regulator with no current rating can never meet positive
		// demand; everything on, flagged as overload.
		return n, true
	}
	need := int(math.Ceil(demandA / imax))
	if need < 1 {
		need = 1
	}
	if need > n {
		return n, true
	}
	return need, false
}

// Run executes the configured simulation and aggregates the results. For
// the practical policies it first runs the θ-extraction profiling pass,
// unless a theta model was installed already or Config.ThetaMemo holds
// the fit. It is equivalent to RunContext with a background
// (never-canceled) context, which keeps every pre-existing caller
// compiling and behaving unchanged.
func (r *Runner) Run() (*Result, error) {
	return r.RunContext(context.Background())
}

// RunContext executes the configured simulation under ctx. Cancellation
// is epoch-granular: the loop polls the context once per epoch and stops
// at the next epoch boundary that has captured a uarch snapshot,
// returning a *CancelError whose Checkpoint resumes the
// run byte-identically (see cancel.go). The poll is a single interface
// call, so the steady-state epoch loop stays allocation-free.
func (r *Runner) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r.runCtx = ctx
	if ctx.Err() != nil {
		// Already canceled: nothing ran, nothing to resume.
		return nil, &CancelError{Epoch: -1, Cause: cancelCause(ctx)}
	}
	if (r.cfg.Policy == core.PracT || r.cfg.Policy == core.PracVT) && len(r.gov.Theta().Theta) == 0 {
		theta, err := r.fitTheta()
		if err != nil {
			return nil, fmt.Errorf("sim: profiling pass: %w", err)
		}
		if err := r.gov.SetTheta(theta); err != nil {
			return nil, err
		}
	}
	return r.runMeasured()
}

// runMeasured executes the measured run with whatever predictor state the
// governor already holds: beginRun assembles the per-run state (activity
// simulator, measurement accumulators), stepEpoch advances one epoch at a
// time, and finishRun folds the accumulators into the Result.
func (r *Runner) runMeasured() (*Result, error) {
	if invariant.Enabled {
		defer invariant.ResetCtx()
	}
	if err := r.beginRun(); err != nil {
		return nil, err
	}
	for e := r.runStart; e < r.runNEpochs; e++ {
		if err := r.stepEpoch(e); err != nil {
			return nil, err
		}
	}
	return r.finishRun()
}

// beginRun assembles the per-run state: the activity simulator, the
// measurement accumulators — restored from a checkpoint when resuming —
// and the initial thermal field.
func (r *Runner) beginRun() error {
	resume := r.resume
	r.resume = nil

	usim, err := r.cfg.newUarch(r.chip, r.cfg.Seed)
	if err != nil {
		return err
	}

	var ms *MeasureState
	r.runStart = 0
	if resume != nil {
		if err := usim.Restore(resume.Uarch); err != nil {
			return err
		}
		// Clone so the checkpoint stays reusable: the same snapshot can be
		// restored into several runners without them sharing result buffers.
		m := resume.Measure.clone()
		ms = &m
		r.runStart = resume.Epoch + 1
	} else {
		ms = &MeasureState{
			WorstNoise:      -1,
			SampledWorst:    -1,
			HeatMapDeadline: -1, // epoch index whose end should capture the map
			Res: &Result{
				Policy:       r.cfg.Policy.String(),
				Benchmark:    r.cfg.benchmarkLabel(),
				NoiseModeled: r.cfg.Policy != core.OffChip,
				VROnFrac:     make([]float64, len(r.chip.Regulators)),
				ThetaMeanR2:  r.gov.Theta().MeanR2(),
			},
		}
		if r.vf != nil {
			ms.DvfsVddSum = make([]float64, floorplan.NumCores)
		}
		// Initialise the thermal state: steady state for the first epoch's
		// power with everything on (a neutral, reproducible starting point).
		if err := r.initThermal(); err != nil {
			return err
		}
		r.tm.VRTemps(r.vrTemps)
		copy(r.sensorVRTemps, r.vrTemps)
	}
	r.runMS = ms
	res := ms.Res

	if r.cfg.durationMS() < 1 {
		return errors.New("sim: empty run")
	}
	nEpochs := r.cfg.epochs()
	r.runNEpochs = nEpochs
	// The paper's VoltSpot methodology: 200 equally distant noise samples
	// across the measured run.
	sampleEvery := ((nEpochs - r.cfg.WarmupEpochs) * r.stepsPerEpoch) / 200
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	r.runSampleEvery = sampleEvery

	// Trace capacities up front so the per-epoch appends never grow in
	// steady state. A resumed run's clone may carry capacity == length
	// and regrow once, in stepEpoch.
	if r.cfg.TraceEpochs && res.Trace == nil {
		res.Trace = make([]EpochStats, 0, nEpochs)
	}
	if r.cfg.TrackVR >= 0 && r.cfg.TrackVR < len(r.chip.Regulators) && res.VRTrace == nil {
		res.VRTrace = make([]VRSample, 0, (nEpochs-r.runStart)*r.stepsPerEpoch)
	}
	r.epochSpan = nil
	r.usim = usim
	r.ins.syncBaselines(r)
	return nil
}

// stepEpoch advances the measured run by one epoch: the activity frames,
// the epoch-average demand, the governor decision, the substep
// physics loop, the deferred PDN phase, epoch bookkeeping, telemetry and
// the cancellation stop. In steady state — buffers sized, caches warm,
// telemetry detached — one call performs no heap allocation, and
// internal/sim/alloc_test.go holds that line.
func (r *Runner) stepEpoch(e int) error {
	ms := r.runMS
	res := ms.Res
	if r.flt != nil {
		r.advanceFaults(e, res)
	}
	// The per-epoch span tree: the six phases of PhaseNames under one
	// "epoch" root; End() merges each interval into the registry's
	// cumulative tree. The tree is allocated on the run's first epoch and
	// recycled ever after — Restart zeroes it so End merges exactly one
	// epoch — and on nil telemetry every span call no-ops for free.
	epSpan := r.epochSpan
	if epSpan != nil {
		epSpan.Restart()
	} else {
		epSpan = r.cfg.Telemetry.StartSpan("epoch")
		r.epochSpan = epSpan
	}
	phase := epSpan.StartChild("uarch")
	frames, ustate, err := r.produceEpoch(e)
	phase.End()
	if err != nil {
		return err
	}
	if r.flt != nil {
		r.applyActivityFaults(frames, res)
	}
	measuring := e >= r.cfg.WarmupEpochs

	// Epoch-average demand (oracle view of the upcoming interval),
	// using leakage at epoch-start temperatures. That leakage is
	// evaluated once here and shared by every power map built on the
	// epoch-start field: this one, the oracle's frameCur maps and the
	// physics loop's substep 0.
	phase = epSpan.StartChild("power")
	averageActivity(frames, r.avgActivity)
	if err := r.updateDVFS(r.avgActivity); err != nil {
		return err
	}
	if err := r.refreshLeakage(); err != nil {
		return err
	}
	if _, err := r.blockPowerScaled(r.avgActivity, r.blockLeak, r.avgBlockPower); err != nil {
		return err
	}
	r.demand(r.avgBlockPower)
	copy(r.avgBlockCurrent, r.blockCurrent)
	copy(r.avgDomainCur, r.domainCurrent)

	// Per-substep current maps for the emergency oracle (leakage at
	// epoch-start temperatures, like the rest of the decision inputs),
	// written into the preallocated frameCur rows.
	for s, f := range frames {
		bp, err := r.blockPowerScaled(f.Activity, r.blockLeak, r.frameCur[s])
		if err != nil {
			return err
		}
		for i, p := range bp {
			bp[i] = power.WattsToAmps(p)
		}
	}
	phase.End()

	// Decision. The governor phase includes the emergency-oracle PDN
	// solves the VT policies request through the callbacks bound in New;
	// every other govIn field aliases runner scratch refreshed above.
	phase = epSpan.StartChild("governor")
	r.tm.VRTemps(r.vrTemps)
	r.govIn.Epoch = e
	if e == 0 {
		copy(r.prevDomainCur, r.avgDomainCur) // bootstrap history
	}
	dec, err := r.gov.Decide(&r.govIn)
	phase.End()
	if err != nil {
		return err
	}
	if invariant.Enabled {
		r.sanitizeDecision(dec)
	}
	if r.flt != nil {
		r.resolveDecisionFaults(dec, r.avgDomainCur, measuring, res)
	}
	epochOverrides := 0
	for _, dd := range dec.Domains {
		if dd.EmergencyOverride {
			res.EmergencyOverrides++
			epochOverrides++
		}
		if dd.ThermalOverride {
			res.ThermalOverrides++
			r.ins.thermalOverrides.Inc()
		}
	}

	// Execute the epoch substep by substep with leakage feedback.
	for i := range r.epochVRLoss {
		r.epochVRLoss[i] = 0
	}
	var epochMaxNoise float64
	var epochChipPower float64
	// Die extremes (Model.Extremes) of the field the epoch ends on: the
	// last measured substep's scan, or one scan after the loop when no
	// substep was measured.
	var epochTmax, epochGrad float64
	for i := range r.epochDomEmerg {
		r.epochDomEmerg[i] = false
	}
	msBase := ms.MeasuredSteps
	for s, f := range frames {
		if invariant.Enabled {
			invariant.SetCtx(e, s)
		}
		phase = epSpan.StartChild("power")
		// Leakage follows the temperature field, which changes only when
		// the thermal model steps. Nothing steps it between the epoch
		// start and substep 0, so substep 0 reuses the epoch-start
		// leakage; every later substep evaluates its own.
		if s > 0 {
			if err := r.refreshLeakage(); err != nil {
				return err
			}
		} else if invariant.Enabled {
			r.sanitizeLeakageReuse()
		}
		if _, err := r.blockPowerScaled(f.Activity, r.blockLeak, r.blockPower); err != nil {
			return err
		}
		r.demand(r.blockPower)
		phase.End()
		copy(r.stepCurrents[s], r.blockCurrent)

		// Apply the decision with hard-limit legalisation.
		phase = epSpan.StartChild("vr")
		for i := range r.vrPower {
			r.vrPower[i] = 0
			r.vrCurrent[i] = 0
		}
		var substepPloss float64
		for d := range r.chip.Domains {
			dd := &dec.Domains[d]
			if r.flt != nil && r.fltDomDirty[d] {
				lossW, pout, eta := r.applyDomainFaulted(d, dd, measuring, res, r.epochVRLoss)
				substepPloss += lossW
				if measuring && pout > 0 && eta > 0 {
					ms.EtaWeighted += eta * pout * r.substepS
					ms.EtaWeight += pout * r.substepS
				}
				continue
			}
			count := dd.Count
			if r.cfg.Policy != core.OffChip {
				mLegal, overload := r.legalCount(d, r.domainCurrent[d])
				if overload && measuring {
					res.DemandViolations++
				}
				if count < mLegal {
					count = mLegal
				}
			}
			mask := r.buildMask(d, count, dd.Ranking)
			if count > 0 {
				loss := r.nets[d].PerVRLoss(r.domainCurrent[d], count)
				share := r.domainCurrent[d] / float64(count)
				if share < 0 {
					share = 0
				}
				dom := &r.chip.Domains[d]
				for li, on := range mask {
					if on {
						rid := dom.Regulators[li]
						r.vrPower[rid] = loss
						r.vrCurrent[rid] = share
						r.epochVRLoss[rid] += loss
						substepPloss += loss
					}
				}
				pout := r.domainCurrent[d] * power.Vdd
				eta := r.nets[d].EtaAt(r.domainCurrent[d], count)
				if measuring && pout > 0 && eta > 0 {
					ms.EtaWeighted += eta * pout * r.substepS
					ms.EtaWeight += pout * r.substepS
				}
			}
		}
		phase.End()
		// Capture this substep's masks (after any fault legalisation)
		// for the deferred PDN phase and the worst-noise snapshot.
		for d := range r.chip.Domains {
			copy(r.stepMasks[s][d], r.masks[d])
		}

		phase = epSpan.StartChild("thermal")
		if err := r.tm.SetPower(r.blockPower, r.vrPower); err != nil {
			return err
		}
		retries, err := r.wd.Step(r.substepS)
		if retries > 0 {
			res.WatchdogRetries += retries
			r.ins.watchdogRetries.Add(float64(retries))
		}
		if err != nil {
			return err
		}
		phase.End()
		if invariant.Enabled {
			r.sanitizeSubstep()
		}

		phase = epSpan.StartChild("power")
		var chipPower float64
		for _, p := range r.blockPower {
			chipPower += p
		}
		epochChipPower += chipPower
		phase.End()

		if measuring && r.wear != nil {
			phase = epSpan.StartChild("thermal")
			r.tm.VRTemps(r.vrTemps)
			if err := r.wear.Observe(r.vrTemps, r.vrCurrent, r.substepS); err != nil {
				return err
			}
			phase.End()
		}

		if measuring {
			// Thermal-state sampling (one Extremes scan of the die nodes)
			// accounts to the thermal phase.
			phase = epSpan.StartChild("thermal")
			ms.MeasuredTime += r.substepS
			ms.PlossIntegral += substepPloss * r.substepS
			ms.ChipPowerInt += chipPower * r.substepS
			t, at, g := r.tm.Extremes()
			if t > res.MaxTempC {
				res.MaxTempC, res.MaxTempAt = t, at
				ms.HeatMapDeadline = e
			}
			if g > res.MaxGradientC {
				res.MaxGradientC = g
			}
			epochTmax, epochGrad = t, g
			phase.End()
		}

		if measuring {
			ms.MeasuredSteps++
		}

		// Regulator temperature trace (Fig. 8).
		if r.cfg.TrackVR >= 0 && r.cfg.TrackVR < len(r.chip.Regulators) {
			rid := r.cfg.TrackVR
			dom := r.chip.Regulators[rid].Domain
			li := 0
			for i, id := range r.chip.Domains[dom].Regulators {
				if id == rid {
					li = i
				}
			}
			// Capacity preallocated in beginRun; a resumed run regrows once.
			res.VRTrace = append(res.VRTrace, VRSample{
				TimeMS: f.TimeMS + f.DtMS,
				TempC:  r.tm.VRTemp(rid),
				On:     r.masks[dom][li],
			})
		}

		// Thermal sensors lag by one substep (100µs); optional
		// Gaussian sensor error models parametric variation.
		if s == r.stepsPerEpoch-2 || r.stepsPerEpoch == 1 {
			phase = epSpan.StartChild("thermal")
			r.tm.VRTemps(r.sensorVRTemps)
			if r.cfg.SensorNoiseC > 0 {
				for i := range r.sensorVRTemps {
					r.sensorVRTemps[i] += r.cfg.SensorNoiseC * r.rng.Norm()
				}
			}
			// Injected sensor faults apply on top of the parametric
			// noise: stuck-at, multiplicative noise, quantization, and
			// dropouts replaced by last-good / neighbor-median values.
			if r.flt != nil {
				fb, ferr := r.flt.ApplySensors(r.sensorVRTemps)
				if ferr != nil {
					phase.End()
					return ferr
				}
				if fb > 0 {
					res.SensorFallbacks += fb
					r.ins.sensorFallbacks.Add(float64(fb))
				}
			}
			phase.End()
		}
	}

	// Voltage noise, deferred to epoch end: the per-substep captures
	// above hold everything the PDN needs, and its outputs feed only
	// the measurement accumulators and the end-of-epoch governor
	// feedback — nothing inside the substep loop reads them.
	if r.cfg.Policy != core.OffChip {
		phase = epSpan.StartChild("pdn")
		perr := r.pdnEpoch(frames, measuring, r.runSampleEvery, msBase, r.epochDomEmerg, &epochMaxNoise, ms, res)
		phase.End()
		if perr != nil {
			return perr
		}
	}

	// Nothing after the substep loop steps the thermal model, so a
	// measured epoch's last substep scan already holds the epoch-end
	// extremes; only an unmeasured epoch with telemetry attached scans.
	if !measuring && r.ins.enabled() {
		epochTmax, _, epochGrad = r.tm.Extremes()
	}

	// Epoch bookkeeping: the mask scan accounts to the vr phase, the
	// governor feedback observations to the governor phase.
	phase = epSpan.StartChild("vr")
	activeCount := 0
	for d := range r.chip.Domains {
		for li, on := range r.masks[d] {
			if on {
				activeCount++
				if measuring {
					res.VROnFrac[r.chip.Domains[d].Regulators[li]]++
				}
			}
		}
	}
	phase.End()
	copy(r.prevDomainCur, r.avgDomainCur)
	for i := range r.epochVRLoss {
		r.epochVRLoss[i] /= float64(r.stepsPerEpoch)
	}
	phase = epSpan.StartChild("governor")
	if err := r.gov.Observe(r.avgDomainCur, r.epochVRLoss); err != nil {
		return err
	}
	if err := r.gov.ObserveEmergencies(r.epochDomEmerg); err != nil {
		return err
	}
	phase.End()
	copy(r.perVRLoss, r.epochVRLoss)

	if measuring {
		ms.MeasuredEpochs++
		if r.vf != nil {
			cfgVF := r.vf.Config()
			for c := 0; c < floorplan.NumCores; c++ {
				p := r.vf.Point(c)
				ms.DvfsVddSum[c] += p.VddV
				ms.DvfsPerfSum += cfgVF.PerformanceScale(p)
			}
		}
		if r.cfg.TraceEpochs {
			var ploss float64
			for _, l := range r.epochVRLoss {
				ploss += l
			}
			// Capacity preallocated in beginRun; a resumed run regrows once.
			res.Trace = append(res.Trace, EpochStats{
				TimeMS:      float64(e) * r.cfg.EpochMS,
				TotalPowerW: epochChipPower / float64(r.stepsPerEpoch),
				ActiveVRs:   activeCount,
				MaxTempC:    epochTmax,
				GradientC:   epochGrad,
				MaxNoisePct: epochMaxNoise,
				PlossW:      ploss,
				Eta:         0, // filled in aggregate below
			})
		}
		if r.cfg.HeatMapRes > 0 && ms.HeatMapDeadline == e {
			hm, err := r.tm.HeatMap(r.cfg.HeatMapRes, r.cfg.HeatMapRes)
			if err != nil {
				return err
			}
			res.HeatMap = hm
		}
	}

	epSpan.End()
	if r.ins.enabled() {
		var ploss float64
		for _, l := range r.epochVRLoss {
			ploss += l
		}
		if err := r.ins.observeEpoch(r, epSpan, epochStats{
			epoch:      e,
			timeMS:     float64(e) * r.cfg.EpochMS,
			measuring:  measuring,
			activeVRs:  activeCount,
			chipPowerW: epochChipPower / float64(r.stepsPerEpoch),
			plossW:     ploss,
			maxTempC:   epochTmax,
			gradientC:  epochGrad,
			noisePct:   epochMaxNoise,
			overrides:  epochOverrides,
		}); err != nil {
			return fmt.Errorf("sim: telemetry sink: %w", err)
		}
	}

	// Cancellation stop: once the context is done, the first epoch that
	// captured a uarch snapshot is the boundary the run halts at, with a
	// complete resumable checkpoint in the error, taken after the epoch's
	// telemetry so a resumed run re-emits exactly the remaining records. An epoch whose frames
	// were produced before cancellation was requested has no snapshot and
	// simply completes; the next one stops.
	if r.ctxErr() != nil && ustate != nil {
		return &CancelError{
			Epoch:      e,
			Checkpoint: r.snapshot(e, ustate, ms),
			Cause:      cancelCause(r.runCtx),
		}
	}
	return nil
}

// finishRun folds the measurement accumulators into the Result once the
// epoch loop completes.
func (r *Runner) finishRun() (*Result, error) {
	ms := r.runMS
	res := ms.Res
	if ms.MeasuredEpochs == 0 {
		return nil, errors.New("sim: run shorter than the warm-up window")
	}
	res.Epochs = ms.MeasuredEpochs
	for i := range res.VROnFrac {
		res.VROnFrac[i] /= float64(ms.MeasuredEpochs)
	}
	if ms.MeasuredTime > 0 {
		res.AvgPlossW = ms.PlossIntegral / ms.MeasuredTime
		res.AvgChipPowerW = ms.ChipPowerInt / ms.MeasuredTime
		res.EmergencyFrac = ms.EmergencyTime / ms.MeasuredTime
	}
	if ms.EtaWeight > 0 {
		res.AvgEta = ms.EtaWeighted / ms.EtaWeight
	}
	if ms.WorstNoise >= 0 {
		res.MaxNoisePct = ms.WorstNoise
	}
	if ms.SampledWorst >= 0 {
		res.SampledMaxNoisePct = ms.SampledWorst
	}
	if r.wear != nil {
		res.MTTFYears = r.wear.MTTFYears()
		res.MinMTTFYears = r.wear.MinMTTFYears()
		res.AgingImbalance = r.wear.ImbalanceRatio()
	}
	res.DetectorStats = r.gov.DetectorStats()
	if r.vf != nil {
		res.DVFSAvgVddV = make([]float64, floorplan.NumCores)
		for c := range res.DVFSAvgVddV {
			res.DVFSAvgVddV[c] = ms.DvfsVddSum[c] / float64(ms.MeasuredEpochs)
		}
		res.DVFSAvgPerf = ms.DvfsPerfSum / float64(ms.MeasuredEpochs*floorplan.NumCores)
	}
	for i := range res.Trace {
		res.Trace[i].Eta = res.AvgEta
	}
	r.ins.observeRun(res)
	return res, nil
}

// snapshotWorstNoise captures enough state at the worst-noise moment to
// regenerate a transient window later. maxBlock is the global block ID of
// the steady-noise maximum; blockCurrent and mask are the substep's
// captured current map and gating mask. It fires only when a new
// run-wide worst-noise maximum is found.
func (r *Runner) snapshotWorstNoise(d, maxBlock int, blockCurrent []float64, mask []bool, f uarch.Frame, frames []uarch.Frame) *WorstNoiseState {
	dom := &r.chip.Domains[d]
	bi := 0
	for i, bid := range dom.Blocks {
		if bid == maxBlock {
			bi = i
		}
	}
	ws := &WorstNoiseState{
		Domain:       d,
		BlockIndex:   bi,
		TimeMS:       f.TimeMS,
		BlockCurrent: append([]float64(nil), blockCurrent...),
		Active:       append([]bool(nil), mask...),
	}
	// Map the epoch's bursts (for this domain's core) onto window cycles.
	coreIdx := r.burstDomainCore(d)
	epochStart := frames[0].TimeMS
	for _, fr := range frames {
		for _, b := range fr.Bursts {
			if b.Core != coreIdx {
				continue
			}
			startCycle := int((b.TimeMS - epochStart) * 1e6 * uarch.ClockGHz / 1000)
			if startCycle < 0 {
				startCycle = 0
			}
			ws.Bursts = append(ws.Bursts, pdn.Burst{
				StartCycle: startCycle % 2000,
				Cycles:     b.Cycles,
				Amp:        b.Amp,
			})
		}
	}
	return ws
}

// initThermal settles the package at the steady state of a mid-activity
// all-on operating point so runs start from a physically plausible field.
func (r *Runner) initThermal() error {
	act := make([]float64, len(r.chip.Blocks))
	c, m := r.cfg.meanIntensity()
	level := 0.5*c + 0.5*m
	for i := range act {
		act[i] = level
	}
	temps := make([]float64, len(r.chip.Blocks))
	for i := range temps {
		temps[i] = 60
	}
	bp, err := r.pm.Total(act, temps, nil)
	if err != nil {
		return err
	}
	vp := make([]float64, len(r.chip.Regulators))
	if r.cfg.Policy != core.OffChip {
		r.demand(bp)
		for d := range r.chip.Domains {
			n := r.nets[d].Size()
			loss := r.nets[d].PerVRLoss(r.domainCurrent[d], n)
			for _, rid := range r.chip.Domains[d].Regulators {
				vp[rid] = loss
			}
		}
	}
	if err := r.tm.SetPower(bp, vp); err != nil {
		return err
	}
	if _, err = r.tm.SteadyState(1e-4, 0); err != nil {
		// One bounded retry with a quadrupled iteration budget before the
		// non-convergence is surfaced to the caller.
		_, err = r.tm.SteadyState(1e-4, 80000)
	}
	return err
}
