// Package fault provides deterministic fault injection for the three layers
// the ThermoGater governor trusts: the regulator network (stuck-off,
// stuck-on, per-phase current loss, efficiency derating over time), the
// thermal sensors (stuck-at, multiplicative noise, quantization, dropout)
// and the activity/power inputs (trace gaps and spikes).
//
// Faults are declared as a Schedule of Events that fire at configured
// epochs. The Injector that interprets a schedule is seeded from the run's
// PRNG, so a faulted run is exactly as reproducible as a healthy one: the
// same seed and schedule always produce the same fault sequence, and the
// injector's full state can be checkpointed and restored (see State).
//
// The injector never mutates the simulation itself — it only reports the
// per-unit fault state (VRStatus, IMaxFrac, LossMult, TraceGap, ...) and
// filters sensor readings (ApplySensors). Wiring the reported state into
// the regulator solve, the governor inputs and the activity frames is the
// simulation runner's job, which keeps the healthy fast path byte-for-byte
// unchanged when no schedule is configured. See docs/ROBUSTNESS.md.
package fault

import (
	"errors"
	"fmt"
	"math"
)

// Kind enumerates the fault models.
type Kind int

const (
	// VRStuckOff permanently removes a regulator from service: it can no
	// longer be activated and carries no current. Unit is a regulator id.
	VRStuckOff Kind = iota
	// VRStuckOn wedges a regulator's power switch closed: it carries its
	// current share and dissipates loss even when the governor gates it.
	// Unit is a regulator id.
	VRStuckOn
	// VRPhaseLoss degrades a regulator's deliverable current: Value is the
	// remaining fraction of its per-phase IMax in (0, 1]. Unit is a
	// regulator id.
	VRPhaseLoss
	// VRDerate ages a regulator's efficiency: its conversion loss is
	// multiplied by 1 + Value·(epochs since onset), capped at
	// MaxLossMultiplier. Value is the per-epoch growth rate (> 0). Unit is
	// a regulator id.
	VRDerate
	// SensorStuckAt freezes a regulator temperature sensor at Value (°C).
	// Unit is a regulator id (sensors are per-regulator).
	SensorStuckAt
	// SensorNoise adds zero-mean gaussian error with relative sigma Value
	// (0.10 = 10% of the reading) to a sensor. This is the fault-model
	// counterpart of sim.Config.SensorNoiseC, which is an absolute °C
	// sigma applied to all sensors. Unit is a regulator id.
	SensorNoise
	// SensorQuantize rounds a sensor's reading to multiples of Value (°C).
	// Unit is a regulator id.
	SensorQuantize
	// SensorDropout makes a sensor deliver no reading at all; consumers
	// fall back to the last good value or the neighbor median. Unit is a
	// regulator id.
	SensorDropout
	// TraceGap models a hole in the activity/power input stream for one
	// core: its activity freezes at the last delivered frame and its burst
	// events are dropped for the duration. Unit is a core id.
	TraceGap
	// TraceSpike multiplies one core's activity by Value (> 0), clamped to
	// the legal [0, 1] range — a corrupted or glitched input sample.
	// Unit is a core id.
	TraceSpike

	numKinds
)

// MaxLossMultiplier caps VRDerate's loss growth so a long run cannot drive
// the energy balance to absurd values.
const MaxLossMultiplier = 4.0

var kindNames = [numKinds]string{
	VRStuckOff:     "vr-stuck-off",
	VRStuckOn:      "vr-stuck-on",
	VRPhaseLoss:    "vr-phase-loss",
	VRDerate:       "vr-derate",
	SensorStuckAt:  "sensor-stuck",
	SensorNoise:    "sensor-noise",
	SensorQuantize: "sensor-quantize",
	SensorDropout:  "sensor-dropout",
	TraceGap:       "trace-gap",
	TraceSpike:     "trace-spike",
}

// String returns the stable spelling used by ParseKind and the CLI.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind inverts String.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// Kinds lists every fault model, in declaration order (for matrix tests).
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// layer classifies a kind by the unit space its Unit field indexes.
type layer int

const (
	layerVR layer = iota
	layerSensor
	layerTrace
)

func (k Kind) layer() layer {
	switch k {
	case VRStuckOff, VRStuckOn, VRPhaseLoss, VRDerate:
		return layerVR
	case SensorStuckAt, SensorNoise, SensorQuantize, SensorDropout:
		return layerSensor
	default:
		return layerTrace
	}
}

// needsValue reports whether the kind's Value field is meaningful.
func (k Kind) needsValue() bool {
	switch k {
	case VRPhaseLoss, VRDerate, SensorStuckAt, SensorNoise, SensorQuantize, TraceSpike:
		return true
	}
	return false
}

// Event is one scheduled fault.
type Event struct {
	// Kind selects the fault model.
	Kind Kind
	// Epoch is the first epoch (0-based) the fault is active.
	Epoch int
	// DurationEpochs bounds the fault; 0 means permanent.
	DurationEpochs int
	// Unit selects the affected unit — a regulator id for VR and sensor
	// kinds, a core id for trace kinds; −1 means every unit of the layer.
	Unit int
	// Value parameterizes the model; see the Kind constants.
	Value float64
}

// activeAt reports whether the event covers the given epoch.
func (e Event) activeAt(epoch int) bool {
	if epoch < e.Epoch {
		return false
	}
	return e.DurationEpochs == 0 || epoch < e.Epoch+e.DurationEpochs
}

// Validate rejects a malformed event.
func (e Event) Validate() error {
	if e.Kind < 0 || e.Kind >= numKinds {
		return fmt.Errorf("fault: unknown kind %d", int(e.Kind))
	}
	if e.Epoch < 0 {
		return fmt.Errorf("fault: %v epoch %d is negative", e.Kind, e.Epoch)
	}
	if e.DurationEpochs < 0 {
		return fmt.Errorf("fault: %v duration %d is negative", e.Kind, e.DurationEpochs)
	}
	if e.Unit < -1 {
		return fmt.Errorf("fault: %v unit %d (want ≥ 0, or -1 for all)", e.Kind, e.Unit)
	}
	if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
		return fmt.Errorf("fault: %v value %v is not finite", e.Kind, e.Value)
	}
	switch e.Kind {
	case VRPhaseLoss:
		if e.Value <= 0 || e.Value > 1 {
			return fmt.Errorf("fault: %v remaining IMax fraction %v outside (0, 1]", e.Kind, e.Value)
		}
	case VRDerate:
		if e.Value <= 0 {
			return fmt.Errorf("fault: %v growth rate %v must be positive", e.Kind, e.Value)
		}
	case SensorStuckAt:
		if e.Value < -273.15 || e.Value > 1000 {
			return fmt.Errorf("fault: %v stuck value %v°C outside [-273.15, 1000]", e.Kind, e.Value)
		}
	case SensorNoise:
		if e.Value <= 0 {
			return fmt.Errorf("fault: %v relative sigma %v must be positive", e.Kind, e.Value)
		}
	case SensorQuantize:
		if e.Value <= 0 {
			return fmt.Errorf("fault: %v quantization step %v must be positive", e.Kind, e.Value)
		}
	case TraceSpike:
		if e.Value <= 0 {
			return fmt.Errorf("fault: %v amplitude %v must be positive", e.Kind, e.Value)
		}
	}
	return nil
}

// Schedule is an ordered list of scheduled faults. Order matters when
// events overlap: later events override earlier ones on the same unit.
type Schedule struct {
	Events []Event
}

// Validate rejects a malformed schedule.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for i, e := range s.Events {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("event %d: %w", i, err)
		}
	}
	return nil
}

// Empty reports whether the schedule carries no events. sim.Runner builds
// no injector for an empty schedule, so such a run takes the healthy path.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// checkUnits verifies every event's Unit fits the given topology.
func (s *Schedule) checkUnits(topo Topology) error {
	for i, e := range s.Events {
		var n int
		var space string
		switch e.Kind.layer() {
		case layerVR, layerSensor:
			n, space = topo.NumVRs, "regulators"
		default:
			n, space = topo.NumCores, "cores"
		}
		if e.Unit >= n {
			return fmt.Errorf("fault: event %d (%v) unit %d outside %d %s", i, e.Kind, e.Unit, n, space)
		}
	}
	return nil
}

// ErrTopology reports an injector built over an inconsistent topology.
var ErrTopology = errors.New("fault: invalid topology")

// Topology tells the injector the shape of the simulated chip.
type Topology struct {
	// NumVRs is the regulator (and sensor) count.
	NumVRs int
	// NumCores is the core count for trace faults.
	NumCores int
	// SensorGroups lists, per voltage domain, the regulator ids whose
	// sensors are physical neighbors — the candidate set for the
	// neighbor-median dropout fallback. A regulator may appear in exactly
	// one group.
	SensorGroups [][]int
}

// Validate rejects an inconsistent topology.
func (t Topology) Validate() error {
	if t.NumVRs < 1 || t.NumCores < 1 {
		return fmt.Errorf("%w: %d regulators, %d cores", ErrTopology, t.NumVRs, t.NumCores)
	}
	seen := make([]bool, t.NumVRs)
	for _, g := range t.SensorGroups {
		for _, rid := range g {
			if rid < 0 || rid >= t.NumVRs {
				return fmt.Errorf("%w: sensor group member %d outside %d regulators", ErrTopology, rid, t.NumVRs)
			}
			if seen[rid] {
				return fmt.Errorf("%w: regulator %d in two sensor groups", ErrTopology, rid)
			}
			seen[rid] = true
		}
	}
	return nil
}
