// Package invariant is the repository's physics-invariant sanitizer — a
// runtime counterpart, in the ASan/TSan mold, of the static passes tglint
// runs. The simulation loop couples activity → power → thermal → leakage →
// PDN → gating, so a single silent NaN, an aliased scratch buffer, or a
// non-conserved watt corrupts every downstream number without failing a
// test. The checks in this package pin the loop to the paper's physical
// contracts:
//
//   - energy conservation: per-block current maps, per-domain demand and
//     per-VR conversion loss must reconstruct from independent formulas,
//   - temperature bounds: ambient ≤ T ≤ the configured max junction, and
//     the explicit-Euler substep must satisfy its stability (CFL) bound,
//   - PDN droop bounds: IR-drop percentages stay finite, non-negative and
//     below full supply collapse,
//   - VR gating legality: a gated regulator neither carries current nor
//     dissipates loss, and active phase counts stay within the network's
//     limits,
//   - NaN/Inf sweeps over every state vector the Runner reuses.
//
// The whole package is compiled in only under the `tgsan` build tag:
//
//	go test -tags tgsan ./...
//
// Without the tag every check is an empty function the compiler inlines
// away and Enabled is a false constant, so the compiler eliminates every
// `if invariant.Enabled` block — production builds pay nothing. Under the
// tag a violation is reported with its epoch, substep and offending
// block/VR index; the default handler panics, which makes the sanitizer
// the oracle for the `testing.F` fuzz targets (see docs/INVARIANTS.md for
// the full catalogue with paper references).
package invariant

import "fmt"

// Violation is one broken physical contract, located in simulated time.
type Violation struct {
	// Check names the contract, e.g. "energy-balance" or "temp-bounds".
	Check string
	// Epoch and Substep locate the violation in the run; -1 when the
	// check fired outside the Runner's epoch loop (package-level hooks).
	Epoch   int
	Substep int
	// Index is the offending block or regulator index, -1 when the
	// violation is not attributable to a single element.
	Index int
	// Detail is the human-readable specifics (values, bounds).
	Detail string
}

// Error renders the canonical one-line form.
func (v Violation) Error() string {
	loc := "outside epoch loop"
	if v.Epoch >= 0 {
		loc = fmt.Sprintf("epoch %d substep %d", v.Epoch, v.Substep)
	}
	at := ""
	if v.Index >= 0 {
		at = fmt.Sprintf(" index %d", v.Index)
	}
	return fmt.Sprintf("invariant: [%s] %s%s: %s", v.Check, loc, at, v.Detail)
}

// VRFaultClass tells the gating-legality checks how a regulator may
// legally deviate from the governor's decision under an active fault
// schedule (see docs/INVARIANTS.md, "Fault vocabulary"). On healthy runs
// every regulator is VRHealthy and the checks stay fully strict; the sim
// Runner maps the fault injector's per-unit status onto these classes only
// while a schedule is active.
type VRFaultClass int

const (
	// VRHealthy regulators obey the strict contract: gated ⇒ exactly zero
	// current and loss.
	VRHealthy VRFaultClass = iota
	// VRStuckOff regulators are out of service: they must never carry
	// current or dissipate loss, gated or not.
	VRStuckOff
	// VRStuckOn regulators legally carry current and dissipate loss while
	// "gated" — their power switch is wedged closed.
	VRStuckOn
	// VRDerated regulators are in service with a reduced per-phase IMax
	// share and/or elevated loss; the share checks scale accordingly.
	VRDerated
)

// Tolerances shared by the enabled checks and documented in
// docs/INVARIANTS.md. They are declared unconditionally so tests and docs
// can reference them in either build mode.
const (
	// RelTol is the relative tolerance for energy/current balance checks:
	// the compared quantities come from algebraically identical but
	// differently associated float expressions.
	RelTol = 1e-9
	// AbsTolW is the absolute floor (watts/amps) below which balance
	// differences are ignored.
	AbsTolW = 1e-12
	// TempSlackC is how far below ambient a node may transiently sit
	// before the bound counts as violated (explicit Euler rounding).
	TempSlackC = 0.05
	// StabilitySlack relaxes the h·maxRate ≤ 0.5 CFL comparison.
	StabilitySlack = 1e-9
	// DroopCollapsePct is the droop bound: an IR drop at or beyond 100%
	// of nominal Vdd means the supply collapsed.
	DroopCollapsePct = 100.0
)
