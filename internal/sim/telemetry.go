package sim

import (
	"thermogater/internal/pdn"
	"thermogater/internal/telemetry"
)

// PhaseNames lists the six instrumented phases of one simulation epoch, in
// execution order. They appear as children of the per-epoch telemetry span
// and as *_ns fields of each "epoch" record.
//
//   - uarch:    advancing the activity simulator (the SNIPER substitute)
//   - power:    activity→power conversion with leakage feedback (McPAT)
//   - governor: the gating decision, including the emergency-oracle PDN
//     solves the oracular policies request through their callback
//   - vr:       applying the decision — legalisation, masks, per-VR loss
//   - thermal:  the RC-network transient step (HotSpot)
//   - pdn:      steady IR-drop and burst-transient noise evaluation
//     (VoltSpot)
var PhaseNames = []string{"uarch", "power", "governor", "vr", "thermal", "pdn"}

// phaseKeys are the epoch record's per-phase keys, PhaseNames[i] + "_ns".
var phaseKeys = func() []string {
	keys := make([]string, len(PhaseNames))
	for i, phase := range PhaseNames {
		keys[i] = phase + "_ns"
	}
	return keys
}()

// instruments caches every telemetry handle the runner's hot loop touches,
// so instrumentation costs one pointer dereference per use instead of a
// map lookup. All handles are nil when telemetry is disabled; every method
// on them no-ops.
type instruments struct {
	reg *telemetry.Registry

	epochs           *telemetry.Counter
	substeps         *telemetry.Counter
	thermalSub       *telemetry.Counter
	pdnSteady        *telemetry.Counter
	pdnTransient     *telemetry.Counter
	overrides        *telemetry.Counter
	faultFired       *telemetry.Counter
	faultCleared     *telemetry.Counter
	sensorFallbacks  *telemetry.Counter
	traceGaps        *telemetry.Counter
	thermalOverrides *telemetry.Counter
	watchdogRetries  *telemetry.Counter
	maskCacheHit     *telemetry.Counter
	maskCacheMiss    *telemetry.Counter
	epochWallMS      *telemetry.Histogram
	maxTempC         *telemetry.Gauge
	avgEta           *telemetry.Gauge
	emergencyFrac    *telemetry.Gauge
	prevThermalSub   int64
	prevPDNSteady    int64
	prevPDNTrans     int64
	prevMaskCache    pdn.CacheStats

	rec telemetry.Record // the "epoch" record, refilled every epoch
}

// newInstruments registers the runner's metrics. Safe on a nil registry:
// the returned instruments carry nil handles throughout.
func newInstruments(reg *telemetry.Registry) *instruments {
	return &instruments{
		reg:              reg,
		epochs:           reg.Counter("sim_epochs_total"),
		substeps:         reg.Counter("sim_substeps_total"),
		thermalSub:       reg.Counter("thermal_euler_substeps_total"),
		pdnSteady:        reg.Counter("pdn_solves_total", telemetry.L("kind", "steady")),
		pdnTransient:     reg.Counter("pdn_solves_total", telemetry.L("kind", "transient")),
		overrides:        reg.Counter("governor_emergency_overrides_total"),
		faultFired:       reg.Counter("fault_events_total", telemetry.L("kind", "fired")),
		faultCleared:     reg.Counter("fault_events_total", telemetry.L("kind", "cleared")),
		sensorFallbacks:  reg.Counter("sensor_fallbacks_total"),
		traceGaps:        reg.Counter("trace_gap_frames_total"),
		thermalOverrides: reg.Counter("governor_thermal_overrides_total"),
		watchdogRetries:  reg.Counter("thermal_watchdog_retries_total"),
		maskCacheHit:     reg.Counter("pdn_mask_cache_total", telemetry.L("kind", "hit")),
		maskCacheMiss:    reg.Counter("pdn_mask_cache_total", telemetry.L("kind", "miss")),
		epochWallMS:      reg.Histogram("epoch_wall_ms", []float64{0.5, 1, 2, 5, 10, 25, 50, 100}),
		maxTempC:         reg.Gauge("run_max_temp_c"),
		avgEta:           reg.Gauge("run_avg_eta"),
		emergencyFrac:    reg.Gauge("run_emergency_frac"),
	}
}

// enabled reports whether any telemetry is attached.
func (in *instruments) enabled() bool { return in.reg.Enabled() }

// syncBaselines aligns the delta baselines with the runner's cumulative
// solver counters, so work done before the measured loop (e.g. the
// θ-profiling pass) is not attributed to the first epoch.
func (in *instruments) syncBaselines(r *Runner) {
	if !in.enabled() {
		return
	}
	in.prevThermalSub = r.tm.Substeps()
	in.prevPDNSteady = r.pdnSteadySolves
	in.prevPDNTrans = r.pdnTransientSolves
	in.prevMaskCache = r.grid.CacheStats()
}

// epochStats carries the loop-local figures the per-epoch record reports.
type epochStats struct {
	epoch      int
	timeMS     float64
	measuring  bool
	activeVRs  int
	chipPowerW float64
	plossW     float64
	maxTempC   float64
	gradientC  float64
	noisePct   float64
	overrides  int
}

// observeEpoch folds one finished epoch span into the counters and streams
// the "epoch" record. The span must already be ended so its totals cover
// exactly this epoch. The record is the runner's one reused Record with
// prebuilt keys and typed values, so an instrumented steady-state epoch
// allocates nothing either (TestStepEpochZeroAllocs covers it).
func (in *instruments) observeEpoch(r *Runner, ep *telemetry.Span, st epochStats) error {
	if !in.enabled() {
		return nil
	}
	in.epochs.Inc()
	in.substeps.Add(float64(r.stepsPerEpoch))
	thermalSub := r.tm.Substeps()
	dThermal := thermalSub - in.prevThermalSub
	in.prevThermalSub = thermalSub
	in.thermalSub.Add(float64(dThermal))
	dSteady := r.pdnSteadySolves - in.prevPDNSteady
	in.prevPDNSteady = r.pdnSteadySolves
	in.pdnSteady.Add(float64(dSteady))
	dTrans := r.pdnTransientSolves - in.prevPDNTrans
	in.prevPDNTrans = r.pdnTransientSolves
	in.pdnTransient.Add(float64(dTrans))
	cs := r.grid.CacheStats()
	dHit := int64(cs.Hits - in.prevMaskCache.Hits)
	dMiss := int64(cs.Misses - in.prevMaskCache.Misses)
	in.prevMaskCache = cs
	in.maskCacheHit.Add(float64(dHit))
	in.maskCacheMiss.Add(float64(dMiss))
	in.overrides.Add(float64(st.overrides))
	in.epochWallMS.Observe(float64(ep.Total().Nanoseconds()) / 1e6)

	rec := in.rec.Reset("epoch").
		Int("epoch", int64(st.epoch)).
		Float("time_ms", st.timeMS).
		Bool("measuring", st.measuring).
		Int("wall_ns", ep.Total().Nanoseconds())
	for i, phase := range PhaseNames {
		rec.Int(phaseKeys[i], ep.Child(phase).Total().Nanoseconds())
	}
	// The mask-cache tallies go to the pdn_mask_cache_total counters but
	// deliberately NOT into this record: cache warmth is process state,
	// not simulation state (a resumed run starts cold), and the record
	// stream must be byte-identical across resume.
	rec.Int("thermal_substeps", dThermal).
		Int("pdn_steady_solves", dSteady).
		Int("pdn_transient_solves", dTrans).
		Int("active_vrs", int64(st.activeVRs)).
		Float("chip_power_w", st.chipPowerW).
		Float("ploss_w", st.plossW).
		Float("max_temp_c", st.maxTempC).
		Float("gradient_c", st.gradientC).
		Float("max_noise_pct", st.noisePct).
		Int("emergency_overrides", int64(st.overrides))
	return in.reg.Emit(rec)
}

// observeRun records the run-level aggregates once the result is final.
func (in *instruments) observeRun(res *Result) {
	if !in.enabled() {
		return
	}
	in.maxTempC.Set(res.MaxTempC)
	in.avgEta.Set(res.AvgEta)
	in.emergencyFrac.Set(res.EmergencyFrac)
}
