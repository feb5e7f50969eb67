package thermal

import (
	"fmt"
	"math"
)

// validatePowers is the power-map validation the GridModel runs before
// installing heat inputs (the compact Model's SetPower makes the same
// checks inside its copy, with the same errors): the block and
// regulator vectors must match the chip, and every entry must be a
// non-negative real watt figure. A negative or NaN power is a sign error
// upstream that would silently corrupt the temperature field.
func validatePowers(blockPower, vrPower []float64, nBlocks, nVRs int) error {
	if len(blockPower) != nBlocks {
		return fmt.Errorf("thermal: %d block powers, chip has %d blocks", len(blockPower), nBlocks)
	}
	if len(vrPower) != nVRs {
		return fmt.Errorf("thermal: %d regulator powers, chip has %d regulators", len(vrPower), nVRs)
	}
	for i, p := range blockPower {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("thermal: block %d power %v invalid", i, p)
		}
	}
	for r, p := range vrPower {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("thermal: regulator %d power %v invalid", r, p)
		}
	}
	return nil
}
