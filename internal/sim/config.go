// Package sim is the closed-loop experiment engine: it couples the
// activity simulator, the power model, the thermal RC network, the power
// delivery network, the regulator networks and the ThermoGater governor
// exactly as the paper's toolchain coupled SNIPER, McPAT, HotSpot and
// VoltSpot. Every 1ms epoch the governor draws a gating decision; within
// the epoch the engine advances at a finer substep, feeding temperature
// back into leakage (the HotSpot feedback loop of Section 5) and tracking
// the metrics the evaluation reports: maximum chip temperature, maximum
// thermal gradient, maximum voltage noise, conversion loss and efficiency,
// and time spent in voltage emergencies.
package sim

import (
	"errors"
	"fmt"
	"math"

	"thermogater/internal/core"
	"thermogater/internal/dvfs"
	"thermogater/internal/fault"
	"thermogater/internal/floorplan"
	"thermogater/internal/pdn"
	"thermogater/internal/telemetry"
	"thermogater/internal/thermal"
	"thermogater/internal/uarch"
	"thermogater/internal/vr"
	"thermogater/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// Policy is the gating policy under test.
	Policy core.PolicyKind
	// Benchmark is the workload profile.
	Benchmark workload.Profile
	// Mix, when non-empty, runs one independent benchmark per core
	// (multiprogrammed mode, Section 7); it must hold exactly one profile
	// per core and overrides Benchmark.
	Mix []workload.Profile
	// Seed makes the run reproducible.
	Seed uint64
	// EpochMS is the gating decision interval (1ms).
	EpochMS float64
	// SubstepMS is the intra-epoch simulation step (0.1ms).
	SubstepMS float64
	// Design is the component regulator design point (FIVR by default).
	Design vr.Design
	// Thermal and PDN are the package/grid models.
	Thermal thermal.Config
	PDN     pdn.Config
	// Governor configures ThermoGater; its Policy field is overridden by
	// Config.Policy.
	Governor core.Config
	// DurationMS overrides the benchmark ROI length when positive.
	DurationMS int
	// WarmupEpochs run before statistics collection starts.
	WarmupEpochs int
	// ProfilingEpochs sets the θ-extraction profiling pass length used by
	// the practical policies.
	ProfilingEpochs int
	// TraceEpochs enables the per-epoch trace (Fig. 6).
	TraceEpochs bool
	// TrackVR enables the per-substep temperature/state trace of one
	// regulator (Fig. 8); -1 disables.
	TrackVR int
	// HeatMapRes captures an nx×ny heat-map frame at the Tmax peak when
	// positive (Fig. 12).
	HeatMapRes int
	// TrackAging accumulates per-regulator wear (Black's-equation
	// electromigration model) and reports MTTF estimates in the result —
	// the Section 7 aging discussion made quantitative.
	TrackAging bool
	// SensorNoiseC adds zero-mean Gaussian error of this magnitude (°C,
	// one sigma) to every thermal sensor reading the practical policies
	// consume — a parametric-variation stressor for robustness studies.
	SensorNoiseC float64
	// DVFS, when non-nil, layers a per-core dynamic voltage/frequency
	// governor under ThermoGater: low-utilisation cores step down the
	// V/f ladder, shrinking their domains' current demand and hence the
	// number of regulators gating keeps active.
	DVFS *dvfs.Config
	// Telemetry, when non-nil, receives the run's instrumentation: a
	// per-epoch span tree over the six phases of the loop (uarch, power,
	// governor, vr, thermal, pdn), cumulative solver counters, and one
	// "epoch" record per epoch streamed to the registry's sinks. Nil (the
	// default) disables instrumentation at effectively zero cost.
	Telemetry *telemetry.Registry
	// ThetaMemo, when non-nil, shares the practical policies' θ-profiling
	// fit with every other run on the same memo whose profiling inputs
	// match (see ThetaMemo). Nil (the default) profiles afresh every run.
	// Either way the run's outputs are the same, byte for byte.
	ThetaMemo *ThetaMemo
	// Faults, when non-nil and non-empty, arms the deterministic fault
	// injector: scheduled regulator failures, sensor corruption and
	// activity-trace faults are applied at their scheduled epochs and the
	// governor stack degrades as documented in docs/ROBUSTNESS.md. Nil (the
	// default) leaves the healthy path untouched.
	Faults *fault.Schedule
}

// DefaultConfig returns the paper's operating point for the given policy
// and benchmark.
func DefaultConfig(policy core.PolicyKind, bench workload.Profile) Config {
	return Config{
		Policy:          policy,
		Benchmark:       bench,
		Seed:            1,
		EpochMS:         1.0,
		SubstepMS:       0.1,
		Design:          vr.FIVR(),
		Thermal:         thermal.DefaultConfig(),
		PDN:             pdn.DefaultConfig(),
		Governor:        core.DefaultConfig(policy),
		WarmupEpochs:    20,
		ProfilingEpochs: 150,
		TrackVR:         -1,
	}
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if len(c.Mix) > 0 {
		if len(c.Mix) != floorplan.NumCores {
			return fmt.Errorf("sim: mix of %d profiles for %d cores", len(c.Mix), floorplan.NumCores)
		}
		for i, p := range c.Mix {
			if err := p.Validate(); err != nil {
				return fmt.Errorf("sim: mix core %d: %w", i, err)
			}
		}
	} else if err := c.Benchmark.Validate(); err != nil {
		return err
	}
	// !(v > 0) rather than v <= 0 so NaN — every comparison false — is
	// rejected here instead of silently poisoning the whole run.
	if !(c.EpochMS > 0) || !(c.SubstepMS > 0) ||
		math.IsInf(c.EpochMS, 1) || math.IsInf(c.SubstepMS, 1) {
		return errors.New("sim: epoch and substep must be positive and finite")
	}
	if c.SubstepMS > c.EpochMS {
		return errors.New("sim: substep longer than epoch")
	}
	steps := c.EpochMS / c.SubstepMS
	//lint:ignore floatcheck intentional integrality test: the epoch must divide into whole substeps
	if steps != float64(int(steps)) {
		return fmt.Errorf("sim: epoch %vms is not a whole number of %vms substeps", c.EpochMS, c.SubstepMS)
	}
	if c.DurationMS < 0 || c.WarmupEpochs < 0 || c.ProfilingEpochs < 0 {
		return errors.New("sim: negative duration/warmup/profiling")
	}
	// A run with no epoch past the warm-up measures nothing; reject it
	// before θ-profiling and the epoch loop are spent on it.
	if n := c.epochs(); n <= c.WarmupEpochs {
		return fmt.Errorf("sim: run of %d epochs is no longer than its %d-epoch warm-up", n, c.WarmupEpochs)
	}
	if c.TrackVR < -1 || c.TrackVR >= floorplan.TotalVRs {
		return fmt.Errorf("sim: tracked regulator %d outside [-1, %d)", c.TrackVR, floorplan.TotalVRs)
	}
	if !(c.SensorNoiseC >= 0) || math.IsInf(c.SensorNoiseC, 1) {
		return errors.New("sim: sensor noise must be non-negative and finite")
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if c.DVFS != nil {
		if err := c.DVFS.Validate(); err != nil {
			return err
		}
	}
	if err := c.Thermal.Validate(); err != nil {
		return err
	}
	if err := c.PDN.Validate(); err != nil {
		return err
	}
	gov := c.Governor
	gov.Policy = c.Policy
	return gov.Validate()
}

// durationMS returns the effective run length.
func (c Config) durationMS() int {
	if c.DurationMS > 0 {
		return c.DurationMS
	}
	if len(c.Mix) > 0 {
		max := 0
		for _, p := range c.Mix {
			if p.DurationMS > max {
				max = p.DurationMS
			}
		}
		return max
	}
	return c.Benchmark.DurationMS
}

// epochs returns the number of epochs a fresh run steps through.
func (c Config) epochs() int {
	n := int(float64(c.durationMS()) / c.EpochMS)
	if n < 1 {
		n = 1
	}
	return n
}

// benchmarkLabel names the run for reporting. It runs at run setup and
// checkpoint capture, never per epoch.
func (c Config) benchmarkLabel() string {
	if len(c.Mix) == 0 {
		return c.Benchmark.Name
	}
	label := "mix("
	for i, p := range c.Mix {
		if i > 0 {
			label += ","
		}
		label += workload.ShortName(p.Name)
	}
	return label + ")"
}

// newUarch builds the activity simulator for this configuration.
func (c Config) newUarch(chip *floorplan.Chip, seed uint64) (*uarch.Simulator, error) {
	if len(c.Mix) > 0 {
		return uarch.NewMix(chip, c.Mix, seed)
	}
	return uarch.New(chip, c.Benchmark, seed)
}

// meanIntensity averages the workload intensity for thermal initialisation.
func (c Config) meanIntensity() (compute, memory float64) {
	n := float64(len(c.Mix))
	if n <= 0 {
		return c.Benchmark.MeanIntensity()
	}
	for _, p := range c.Mix {
		cc, mm := p.MeanIntensity()
		compute += cc
		memory += mm
	}
	return compute / n, memory / n
}
