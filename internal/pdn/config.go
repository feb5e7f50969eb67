// Package pdn models the on-chip power delivery network and the voltage
// noise that regulator gating induces, standing in for the extended
// VoltSpot simulator of the paper's toolchain. Each Vdd-domain is a
// resistive grid fed by its active component regulators: the steady-state
// IR drop seen by a block grows with its current and with the distance to
// the nearest *active* regulators (the effective impedance rises when
// thermally-aware gating turns off the closest regulator — Section 4's
// voltage-noise hazard). Cycle-level transients add di/dt burst excursions
// whose magnitude depends on the regulator's response time, which is what
// separates the LDO from the buck design in Fig. 15.
package pdn

import (
	"errors"
	"math"
)

// EmergencyThresholdPct is the voltage emergency threshold: maximum noise
// exceeding 10% of nominal Vdd (Section 6.2.4, the horizontal line in
// Fig. 11).
const EmergencyThresholdPct = 10.0

// Config collects the electrical constants of the grid model.
type Config struct {
	// R0Ohm is the per-regulator local path resistance (regulator output
	// impedance plus its via stack into the local grid).
	R0Ohm float64
	// RhoOhmPerMM is the local power grid's effective sheet resistance
	// seen along the path from a regulator to a load, per mm of distance.
	RhoOhmPerMM float64
	// RSharedOhm is the shared domain-level input impedance: the portion
	// of the drop proportional to the whole domain's current.
	RSharedOhm float64
	// ZTransientOhm scales the additional impedance a di/dt burst sees
	// before the regulators respond.
	ZTransientOhm float64
	// ResponseTimeNS is the regulator small-signal response time; a faster
	// regulator (LDO ≈ 1ns vs buck ≈ 10ns) cancels more of the transient.
	ResponseTimeNS float64
	// VddV is the nominal supply voltage noise is reported against.
	VddV float64
	// ServiceAreaMM2 is the die area one regulator's local grid serves. A
	// block larger than this draws its current through proportionally many
	// parallel grid regions, so only the fraction ServiceArea/blockArea of
	// its current stresses any single path; without this, a 26mm² L3 bank
	// would see the IR drop of its whole current concentrated at a point.
	ServiceAreaMM2 float64
	// RippleSigma is the per-cycle AR(1) relative current ripple used in
	// transient windows.
	RippleSigma float64
	// RipplePhi is the AR(1) coefficient of the cycle-level ripple.
	RipplePhi float64
	// BurstRiseCycles and BurstDecayCycles shape a burst's current
	// envelope inside transient windows.
	BurstRiseCycles, BurstDecayCycles int
}

// DefaultConfig returns the grid calibrated against the paper's all-on
// noise profile (worst-case maximum ≈13% of nominal Vdd, Fig. 11) for the
// FIVR-like design.
func DefaultConfig() Config {
	return Config{
		R0Ohm:            0.028,
		RhoOhmPerMM:      0.024,
		RSharedOhm:       0.0016,
		ZTransientOhm:    0.008,
		ResponseTimeNS:   10,
		VddV:             1.03,
		ServiceAreaMM2:   4.0,
		RippleSigma:      0.04,
		RipplePhi:        0.7,
		BurstRiseCycles:  8,
		BurstDecayCycles: 24,
	}
}

// LDOConfig returns the grid configured for the POWER8-like digital LDO
// microregulators of Section 6.4: identical grid, faster response.
func LDOConfig() Config {
	c := DefaultConfig()
	c.ResponseTimeNS = 1
	return c
}

// Validate rejects non-physical configurations. Bounds are phrased as
// !(inside) so NaN — for which every comparison is false — is rejected
// rather than propagated into every downstream voltage figure.
func (c Config) Validate() error {
	if !(c.R0Ohm > 0) || !(c.RhoOhmPerMM > 0) || !(c.RSharedOhm >= 0) ||
		math.IsInf(c.R0Ohm, 1) || math.IsInf(c.RhoOhmPerMM, 1) || math.IsInf(c.RSharedOhm, 1) {
		return errors.New("pdn: resistances must be positive and finite")
	}
	if !(c.ZTransientOhm >= 0) || !(c.ResponseTimeNS >= 0) ||
		math.IsInf(c.ZTransientOhm, 1) || math.IsInf(c.ResponseTimeNS, 1) {
		return errors.New("pdn: transient parameters must be non-negative and finite")
	}
	if !(c.ServiceAreaMM2 > 0) || math.IsInf(c.ServiceAreaMM2, 1) {
		return errors.New("pdn: service area must be positive and finite")
	}
	if !(c.VddV > 0) || math.IsInf(c.VddV, 1) {
		return errors.New("pdn: Vdd must be positive and finite")
	}
	if !(c.RippleSigma >= 0) || !(c.RipplePhi >= 0 && c.RipplePhi < 1) || math.IsInf(c.RippleSigma, 1) {
		return errors.New("pdn: ripple parameters out of range")
	}
	if c.BurstRiseCycles <= 0 || c.BurstDecayCycles <= 0 {
		return errors.New("pdn: burst envelope cycles must be positive")
	}
	return nil
}

// TransientFactor returns the fraction of the transient impedance a burst
// of the given duration actually sees: a regulator with response time τ
// cancels the excursion once it reacts, so slower regulators (larger τ
// relative to the burst) let more of the surge through.
func (c Config) TransientFactor(burstCycles int, clockGHz float64) float64 {
	if burstCycles <= 0 || clockGHz <= 0 {
		return 0
	}
	burstNS := float64(burstCycles) / clockGHz
	return c.ResponseTimeNS / (c.ResponseTimeNS + burstNS)
}
