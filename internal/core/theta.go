package core

import (
	"errors"
	"fmt"

	"thermogater/internal/stats"
)

// ThetaModel holds the per-regulator proportionality constants of the
// paper's Eqn. 2, ΔTᵢ = θᵢ·ΔPᵢ: the linear model PracT uses to anticipate
// each regulator's temperature from the anticipated change in its
// conversion loss. The constants are extracted from power and thermal
// traces collected in a profiling pass, and their quality is quantified by
// the per-regulator coefficient of determination R² (Eqn. 3) — the paper
// calibrates to R² ≈ 0.99.
type ThetaModel struct {
	// Theta holds θᵢ per regulator (K/W).
	Theta []float64
	// R2 holds the per-regulator fit quality.
	R2 []float64
}

// Clone returns a deep copy of m that shares no storage with it.
func (m ThetaModel) Clone() ThetaModel {
	return ThetaModel{Theta: cloneFloats(m.Theta), R2: cloneFloats(m.R2)}
}

// FitTheta extracts θᵢ from profiling traces: dP[i] and dT[i] are the
// observed per-decision-point changes in regulator i's dissipation (W) and
// temperature (°C). Every regulator needs at least two samples.
func FitTheta(dP, dT [][]float64) (ThetaModel, error) {
	if len(dP) == 0 {
		return ThetaModel{}, errors.New("core: no profiling traces")
	}
	if len(dP) != len(dT) {
		return ThetaModel{}, errors.New("core: trace count mismatch")
	}
	m := ThetaModel{
		Theta: make([]float64, len(dP)),
		R2:    make([]float64, len(dP)),
	}
	for i := range dP {
		if len(dP[i]) != len(dT[i]) {
			return ThetaModel{}, fmt.Errorf("core: regulator %d: sample count mismatch", i)
		}
		if len(dP[i]) < 2 {
			return ThetaModel{}, fmt.Errorf("core: regulator %d: need at least 2 samples, got %d", i, len(dP[i]))
		}
		theta, err := stats.LinearFitThroughOrigin(dP[i], dT[i])
		if err != nil {
			return ThetaModel{}, fmt.Errorf("core: regulator %d: %w", i, err)
		}
		m.Theta[i] = theta
		pred := make([]float64, len(dP[i]))
		for k, p := range dP[i] {
			pred[k] = theta * p
		}
		r2, err := stats.RSquared(dT[i], pred)
		if err != nil {
			return ThetaModel{}, fmt.Errorf("core: regulator %d: %w", i, err)
		}
		m.R2[i] = r2
	}
	return m, nil
}

// MeanR2 returns the average fit quality across regulators.
func (m ThetaModel) MeanR2() float64 {
	if len(m.R2) == 0 {
		return 0
	}
	var s float64
	for _, r := range m.R2 {
		s += r
	}
	return s / float64(len(m.R2))
}

// Predict applies Eqn. 2: the anticipated temperature of regulator i given
// its (possibly stale) sensor reading and the anticipated change in its
// dissipation.
func (m ThetaModel) Predict(i int, sensorTempC, dPW float64) float64 {
	if i < 0 || i >= len(m.Theta) {
		return sensorTempC
	}
	return sensorTempC + m.Theta[i]*dPW
}
