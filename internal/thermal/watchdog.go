package thermal

import (
	"fmt"
	"math"

	"thermogater/internal/invariant"
)

// Watchdog wraps a Model's transient step with divergence detection and
// bounded reduced-substep retries. The explicit Euler substep is chosen to
// satisfy the linear-stability (CFL) bound, but a pathological power map —
// injected faults, corrupted inputs — can still push the solution into
// NaN or physically absurd territory within one step. The watchdog
// snapshots the temperature field before each step, validates the result,
// and on failure rolls back and retries with the substep cap halved, up to
// MaxRetries times, before surfacing an error to the caller.
type Watchdog struct {
	// MaxRetries bounds the halving ladder; DefaultMaxRetries when zero.
	MaxRetries int

	m    *Model
	snap []float64
}

// DefaultMaxRetries is the retry budget used when MaxRetries is unset:
// three halvings cut the substep cap 8×, far past any plausible stiffness
// increase a fault can cause.
const DefaultMaxRetries = 3

// NewWatchdog wraps the model. The watchdog owns no thermal state of its
// own — it is safe to construct at any time and drop at any time.
func NewWatchdog(m *Model) *Watchdog { return &Watchdog{m: m} }

// Step advances the model by dtS seconds like Model.Step, retrying at a
// halved substep cap whenever the post-step state fails validation. It
// returns the number of retries consumed (0 on the common healthy path).
// On error the temperature field holds the pre-step snapshot, so the
// caller sees a consistent (if stale) state.
func (w *Watchdog) Step(dtS float64) (retries int, err error) {
	maxRetries := w.MaxRetries
	if maxRetries <= 0 {
		maxRetries = DefaultMaxRetries
	}
	if w.snap == nil {
		w.snap = make([]float64, w.m.nNodes)
	}
	copy(w.snap, w.m.temp)
	capS := w.m.cfg.MaxEulerStepS
	for attempt := 0; ; attempt++ {
		stepErr := w.m.stepCapped(dtS, capS)
		if stepErr == nil && w.healthy() {
			if invariant.Enabled {
				invariant.CheckTempBounds("thermal.Watchdog.temp", w.m.temp, w.m.cfg.AmbientC, math.Inf(1))
			}
			return attempt, nil
		}
		copy(w.m.temp, w.snap)
		if attempt >= maxRetries {
			if stepErr == nil {
				stepErr = fmt.Errorf("thermal: watchdog: step of %v s diverged after %d reduced-substep retries", dtS, attempt)
			}
			return attempt, stepErr
		}
		capS /= 2
	}
}

// healthy validates the post-step temperature field: every node finite,
// and the on-die nodes (blocks and regulators) within a generous physical
// envelope — one degree below ambient up to 50°C past the junction limit.
// The envelope is deliberately looser than the tgsan bounds: the watchdog
// catches solver divergence, not policy failures.
func (w *Watchdog) healthy() bool {
	lo := w.m.cfg.AmbientC - 1
	hi := w.m.cfg.MaxJunction() + 50
	nDie := w.m.nBlocks + w.m.nVRs
	// lo and hi are finite (Config.Validate), so one negated range test
	// also rejects NaN and ±Inf on the die nodes.
	for _, t := range w.m.temp[:nDie] {
		if !(t >= lo && t <= hi) {
			return false
		}
	}
	for _, t := range w.m.temp[nDie:] {
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return false
		}
	}
	return true
}
