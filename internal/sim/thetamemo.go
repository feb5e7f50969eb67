package sim

import (
	"crypto/sha256"
	"encoding/json"
	"sync"

	"thermogater/internal/core"
	"thermogater/internal/thermal"
	"thermogater/internal/vr"
	"thermogater/internal/workload"
)

// thetaMemoCap bounds a ThetaMemo. One fit is θ and R² for each of the
// chip's 96 regulators, about 1.7 KB, so a full memo holds about 0.45 MB.
const thetaMemoCap = 256

// ThetaMemo shares θ-profiling fits between runs. The profiling pass
// (profile.go) is a pure function of a handful of configuration fields, so
// runs that agree on them — a pracT and a pracVT run of one benchmark and
// seed, say — can share one fit. Fits are keyed by the SHA-256 of exactly
// those fields (thetaKey); only successful fits are stored, and every hit
// hands out a clone, so a run that hits is byte-identical to one that
// profiles afresh. A ThetaMemo is safe for concurrent use and holds at most
// thetaMemoCap fits, evicting the oldest first. Install one through
// Config.ThetaMemo.
type ThetaMemo struct {
	mu   sync.Mutex
	fits map[[sha256.Size]byte]core.ThetaModel
	// order is the insertion ring: once the memo is full, order[next] is
	// the oldest key and the next one evicted.
	order        [thetaMemoCap][sha256.Size]byte
	next         int
	hits, misses int64
}

// NewThetaMemo returns an empty memo.
func NewThetaMemo() *ThetaMemo {
	return &ThetaMemo{fits: make(map[[sha256.Size]byte]core.ThetaModel, thetaMemoCap)}
}

// Stats reports how many lookups found a stored fit and how many did not.
func (m *ThetaMemo) Stats() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// size reports how many fits the memo holds.
func (m *ThetaMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.fits)
}

// lookup returns a clone of the fit stored under key.
func (m *ThetaMemo) lookup(key [sha256.Size]byte) (core.ThetaModel, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	fit, ok := m.fits[key]
	if !ok {
		m.misses++
		return core.ThetaModel{}, false
	}
	m.hits++
	return fit.Clone(), true
}

// store keeps a clone of fit under key, evicting the oldest fit when the
// memo is full. Two runs that missed on one key concurrently both fit;
// the first to store wins and the second store is a no-op.
func (m *ThetaMemo) store(key [sha256.Size]byte, fit core.ThetaModel) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.fits[key]; ok {
		return
	}
	if len(m.fits) == thetaMemoCap {
		delete(m.fits, m.order[m.next])
	}
	m.fits[key] = fit.Clone()
	m.order[m.next] = key
	m.next = (m.next + 1) % thetaMemoCap
}

// thetaInputs is every Config field profileTheta reads. The floorplan and
// power model are not here because New always builds the same POWER8 chip.
type thetaInputs struct {
	Benchmark       workload.Profile
	Mix             []workload.Profile
	Seed            uint64
	EpochMS         float64
	SubstepMS       float64
	Design          vr.Design
	Thermal         thermal.Config
	ProfilingEpochs int
}

// thetaKey is the memo key of cfg's profiling pass: the SHA-256 of the
// canonical JSON of its thetaInputs, built the way serve's JobSpec.ID is.
// encoding/json emits struct fields in declaration order, so equal inputs
// give equal keys. A Mix overrides Benchmark, so Benchmark is dropped when
// a Mix is set. It fails only on inputs JSON cannot encode, such as NaN.
func thetaKey(cfg Config) ([sha256.Size]byte, error) {
	in := thetaInputs{
		Benchmark:       cfg.Benchmark,
		Mix:             cfg.Mix,
		Seed:            cfg.Seed,
		EpochMS:         cfg.EpochMS,
		SubstepMS:       cfg.SubstepMS,
		Design:          cfg.Design,
		Thermal:         cfg.Thermal,
		ProfilingEpochs: cfg.ProfilingEpochs,
	}
	if len(in.Mix) > 0 {
		in.Benchmark = workload.Profile{}
	}
	b, err := json.Marshal(in)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// fitTheta returns the run's θ model: a clone of the fit cfg.ThetaMemo
// holds for this run's profiling inputs, or else a fresh profiling pass,
// which is stored in the memo when it succeeds.
func (r *Runner) fitTheta() (core.ThetaModel, error) {
	memo := r.cfg.ThetaMemo
	if memo == nil {
		return r.profileTheta()
	}
	key, err := thetaKey(r.cfg)
	if err != nil {
		return r.profileTheta()
	}
	if fit, ok := memo.lookup(key); ok {
		return fit, nil
	}
	fit, err := r.profileTheta()
	if err != nil {
		return core.ThetaModel{}, err
	}
	memo.store(key, fit)
	return fit, nil
}
