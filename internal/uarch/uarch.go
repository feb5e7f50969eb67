// Package uarch is the microarchitectural activity simulator standing in
// for SNIPER in the paper's toolchain. It advances an 8-core machine
// through a benchmark's region of interest and produces, per time step, the
// activity factor of every floorplan block (core pipeline units, private
// L2s, shared L3 banks, NOC and memory controllers) plus the di/dt burst
// events that matter for voltage noise. The governor only ever sees
// activity-derived power, so an interval model at 100µs resolution with
// cycle-level bursts inside sampled windows exercises exactly the code
// paths the paper's cycle-accurate traces did.
package uarch

import (
	"errors"
	"fmt"
	"math"

	"thermogater/internal/floorplan"
	"thermogater/internal/workload"
)

// DefaultStepMS is the native simulation step: ten steps per 1ms gating
// decision epoch.
const DefaultStepMS = 0.1

// ClockGHz is the core clock (Table 1).
const ClockGHz = 4.0

// BurstEvent is one di/dt event: a sudden current surge (pipeline refill,
// cache burst, power-gating wake) lasting a few tens of cycles. Bursts are
// what push voltage noise past the emergency threshold (Table 2).
type BurstEvent struct {
	// Core is the core on which the burst occurs.
	Core int
	// TimeMS is the burst onset, milliseconds from ROI start.
	TimeMS float64
	// Cycles is the burst duration in core cycles.
	Cycles int
	// Amp is the fractional current surge (1.0 = +100% of the core's
	// instantaneous current).
	Amp float64
}

// Frame is the simulator output for one step.
type Frame struct {
	// TimeMS is the frame start time.
	TimeMS float64
	// DtMS is the frame duration.
	DtMS float64
	// Activity holds one activity factor in [0, 1] per floorplan block,
	// indexed by Block.ID.
	Activity []float64
	// IPC is the estimated instructions per cycle per core.
	IPC []float64
	// Bursts lists the di/dt events that occurred within the frame.
	Bursts []BurstEvent
}

// Simulator advances one benchmark — or, in multiprogrammed mode, one
// independent benchmark per core — on the modelled chip.
type Simulator struct {
	chip     *floorplan.Chip
	profiles []workload.Profile // one per core
	mix      bool               // true when cores run independent programs
	threads  int

	time       float64 // ms
	noise      []float64
	coreRNG    []*workload.RNG
	burstRNG   *workload.RNG
	bankWeight [][]float64
	inStorm    []bool

	// Cached block indices for fast frame fills.
	coreBlocks [][]int // [core] -> block IDs of that core's units
	l3Blocks   []int   // bank -> block ID
	nocBlock   int
	mcBlocks   []int

	// bankScratch accumulates per-bank L3 traffic within one StepInto;
	// held on the simulator so the per-step fill allocates nothing.
	bankScratch []float64
}

// New creates a simulator for the given chip and benchmark profile, with
// one software thread per core. The seed makes runs reproducible; the same
// (profile, seed) pair always produces identical traces.
func New(chip *floorplan.Chip, profile workload.Profile, seed uint64) (*Simulator, error) {
	profiles := make([]workload.Profile, floorplan.NumCores)
	for i := range profiles {
		profiles[i] = profile
	}
	s, err := NewMix(chip, profiles, seed)
	if err != nil {
		return nil, err
	}
	s.mix = false
	return s, nil
}

// NewMix creates a multiprogrammed simulator: each core runs its own
// single-threaded benchmark (Section 7: ThermoGater controls each
// Vdd-domain independently and accommodates workload heterogeneity,
// including multiprogramming). Thread skew and serial phases do not apply
// in mix mode — every core is its program's only thread.
func NewMix(chip *floorplan.Chip, profiles []workload.Profile, seed uint64) (*Simulator, error) {
	if chip == nil {
		return nil, errors.New("uarch: nil chip")
	}
	if len(profiles) != floorplan.NumCores {
		return nil, fmt.Errorf("uarch: %d profiles for %d cores", len(profiles), floorplan.NumCores)
	}
	for i, p := range profiles {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("uarch: core %d: %w", i, err)
		}
	}
	s := &Simulator{
		chip:     chip,
		profiles: append([]workload.Profile(nil), profiles...),
		mix:      true,
		threads:  floorplan.NumCores,
	}
	root := workload.NewRNG(seed ^ 0x7468657267617465)
	s.burstRNG = root.Fork(0xb0)
	s.noise = make([]float64, s.threads)
	s.inStorm = make([]bool, s.threads)
	s.coreRNG = make([]*workload.RNG, s.threads)
	for c := 0; c < s.threads; c++ {
		s.coreRNG[c] = root.Fork(uint64(c) + 1)
	}

	// L3 bank traffic weights with each core profile's skew, normalised
	// to 1 per core.
	s.bankWeight = make([][]float64, s.threads)
	for c := 0; c < s.threads; c++ {
		w := make([]float64, floorplan.NumL3Banks)
		var wsum float64
		for b := range w {
			w[b] = 1 - s.profiles[c].BankSkew*float64(b)/float64(floorplan.NumL3Banks-1)
			wsum += w[b]
		}
		for b := range w {
			w[b] /= wsum
		}
		s.bankWeight[c] = w
	}

	// Size the per-core and MC index caches exactly before filling them.
	s.coreBlocks = make([][]int, floorplan.NumCores)
	perCore := make([]int, floorplan.NumCores)
	nMC := 0
	for _, b := range chip.Blocks {
		switch {
		case b.Core >= 0:
			perCore[b.Core]++
		case b.Class == floorplan.UnitMC:
			nMC++
		}
	}
	for c := range s.coreBlocks {
		s.coreBlocks[c] = make([]int, 0, perCore[c])
	}
	s.mcBlocks = make([]int, 0, nMC)
	s.l3Blocks = make([]int, floorplan.NumL3Banks)
	bank := 0
	for _, b := range chip.Blocks {
		switch {
		case b.Core >= 0:
			s.coreBlocks[b.Core] = append(s.coreBlocks[b.Core], b.ID) //lint:ignore capgrow capacity set per core just above; the establishing index is spelled c, not b.Core
		case b.Class == floorplan.UnitL3:
			s.l3Blocks[bank] = b.ID
			bank++
		case b.Class == floorplan.UnitNOC:
			s.nocBlock = b.ID
		case b.Class == floorplan.UnitMC:
			s.mcBlocks = append(s.mcBlocks, b.ID)
		}
	}
	if bank != floorplan.NumL3Banks {
		return nil, fmt.Errorf("uarch: found %d L3 banks, want %d", bank, floorplan.NumL3Banks)
	}
	s.bankScratch = make([]float64, floorplan.NumL3Banks)
	return s, nil
}

// Profile returns core 0's benchmark (the whole chip's benchmark in
// single-program mode).
func (s *Simulator) Profile() workload.Profile { return s.profiles[0] }

// Profiles returns the per-core benchmark assignment.
func (s *Simulator) Profiles() []workload.Profile {
	return append([]workload.Profile(nil), s.profiles...)
}

// Mixed reports whether cores run independent programs.
func (s *Simulator) Mixed() bool { return s.mix }

// TimeMS returns the current simulation time in milliseconds.
func (s *Simulator) TimeMS() float64 { return s.time }

// Done reports whether every program's region of interest has been fully
// simulated.
func (s *Simulator) Done() bool {
	for _, p := range s.profiles {
		if s.time < float64(p.DurationMS) {
			return false
		}
	}
	return true
}

// State is the simulator's mutable state for checkpointing; the chip,
// profiles and cached indices are configuration and are rebuilt.
type State struct {
	TimeMS   float64
	Noise    []float64
	InStorm  []bool
	CoreRNG  []uint64
	BurstRNG uint64
}

// State snapshots the simulator.
func (s *Simulator) State() *State {
	st := &State{
		TimeMS:   s.time,
		Noise:    append([]float64(nil), s.noise...),
		InStorm:  append([]bool(nil), s.inStorm...),
		CoreRNG:  make([]uint64, len(s.coreRNG)),
		BurstRNG: s.burstRNG.State(),
	}
	for i, r := range s.coreRNG {
		st.CoreRNG[i] = r.State()
	}
	return st
}

// Restore loads a snapshot taken by State on a simulator built from the
// same chip, profiles and seed.
func (s *Simulator) Restore(st *State) error {
	if st == nil {
		return errors.New("uarch: nil state")
	}
	if len(st.Noise) != s.threads || len(st.InStorm) != s.threads || len(st.CoreRNG) != s.threads {
		return fmt.Errorf("uarch: state covers %d threads, simulator has %d", len(st.Noise), s.threads)
	}
	if st.TimeMS < 0 || math.IsNaN(st.TimeMS) || math.IsInf(st.TimeMS, 0) {
		return fmt.Errorf("uarch: state time %v invalid", st.TimeMS)
	}
	s.time = st.TimeMS
	copy(s.noise, st.Noise)
	copy(s.inStorm, st.InStorm)
	for i := range s.coreRNG {
		s.coreRNG[i].SetState(st.CoreRNG[i])
	}
	s.burstRNG.SetState(st.BurstRNG)
	return nil
}

// clamp01 saturates an activity factor into [0, 1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Step advances the simulation by dtMS milliseconds and returns the
// resulting activity frame. dtMS must be positive. It is the
// convenience wrapper over StepInto and allocates a fresh frame per
// call; per-epoch callers (the sim runner's epoch loop) use StepInto
// with recycled frames instead.
func (s *Simulator) Step(dtMS float64) (Frame, error) {
	var f Frame
	if err := s.StepInto(dtMS, &f); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// StepInto is Step writing into a caller-owned frame: the Activity and
// IPC slices are resized in place when their capacity suffices and the
// burst list is reset and appended to, so a frame reused across steps
// makes the steady-state step allocation-free. The frame's previous
// contents are fully overwritten.
func (s *Simulator) StepInto(dtMS float64, f *Frame) error {
	if dtMS <= 0 {
		return fmt.Errorf("uarch: non-positive step %v", dtMS)
	}
	f.TimeMS = s.time
	f.DtMS = dtMS
	if cap(f.Activity) < len(s.chip.Blocks) {
		f.Activity = make([]float64, len(s.chip.Blocks))
	}
	f.Activity = f.Activity[:len(s.chip.Blocks)]
	for i := range f.Activity {
		f.Activity[i] = 0
	}
	if cap(f.IPC) < s.threads {
		f.IPC = make([]float64, s.threads)
	}
	f.IPC = f.IPC[:s.threads]
	f.Bursts = f.Bursts[:0]

	var totalL3Traffic float64
	bankTraffic := s.bankScratch
	for i := range bankTraffic {
		bankTraffic[i] = 0
	}
	var mcTraffic float64
	for c := 0; c < s.threads; c++ {
		p := &s.profiles[c]
		ph := p.PhaseAt(s.time)
		compute, mem := s.threadIntensity(c, ph)

		// Per-unit activity, indexed by unit class. The ISU and IFU track
		// overall issue/fetch pressure; the L2 sees the L1 miss stream.
		// A fixed-size array keeps this per-thread table on the stack.
		var act [floorplan.NumUnitClasses]float64
		act[floorplan.UnitEXU] = clamp01(compute)
		act[floorplan.UnitLSU] = clamp01(mem)
		act[floorplan.UnitISU] = clamp01(0.55*compute + 0.25*mem)
		act[floorplan.UnitIFU] = clamp01(0.45*compute + 0.25*mem)
		act[floorplan.UnitL2] = clamp01(6 * mem * p.L1Miss)
		for _, bid := range s.coreBlocks[c] {
			f.Activity[bid] = act[s.chip.Blocks[bid].Class]
		}

		// Traffic escaping the private hierarchy feeds the L3/NOC/MC chain.
		traffic := mem * p.L1Miss * p.L2Miss
		totalL3Traffic += traffic
		for b := range bankTraffic {
			bankTraffic[b] += traffic * s.bankWeight[c][b]
		}
		mcTraffic += traffic * p.L3Miss

		// An 8-wide core sustains IPC proportional to issue pressure,
		// degraded by memory stalls.
		f.IPC[c] = 8 * (0.55*compute + 0.35*mem) * (1 - 0.5*p.L1Miss*mem)

		// Poisson di/dt bursts, optionally clustered into storms: within
		// a storm the rate is scaled up so the long-run average matches
		// the profile's nominal rate.
		expected := p.BurstRatePerMS * dtMS
		if frac := p.BurstClusterFrac; frac > 0 && frac < 1 {
			s.stepStorm(c, dtMS, frac)
			if s.inStorm[c] {
				expected /= frac
			} else {
				expected = 0
			}
		}
		for expected > 0 {
			if s.burstRNG.Float64() < expected {
				f.Bursts = append(f.Bursts, BurstEvent{
					Core:   c,
					TimeMS: s.time + s.burstRNG.Float64()*dtMS,
					Cycles: p.BurstCycles,
					Amp:    p.BurstAmp * (0.7 + 0.6*s.burstRNG.Float64()),
				})
			}
			expected--
		}
	}

	// Shared resources. Each bank sees its weighted share of the traffic
	// escaping the private hierarchies; the gain converts miss traffic into
	// an SRAM activity factor.
	const l3Gain, nocGain, mcGain = 2.0, 1.5, 3.0
	for b, bid := range s.l3Blocks {
		f.Activity[bid] = clamp01(l3Gain * bankTraffic[b] * float64(floorplan.NumL3Banks))
	}
	f.Activity[s.nocBlock] = clamp01(nocGain * totalL3Traffic)
	for _, bid := range s.mcBlocks {
		f.Activity[bid] = clamp01(mcGain * mcTraffic)
	}

	s.time += dtMS
	return nil
}

// stepStorm advances one core's two-state burst-storm process: mean storm
// length BurstStormMS (default 2ms), long-run storm occupancy frac.
func (s *Simulator) stepStorm(c int, dtMS, frac float64) {
	stormMS := s.profiles[c].BurstStormMS
	if stormMS <= 0 {
		stormMS = 2.0
	}
	if s.inStorm[c] {
		if s.burstRNG.Float64() < dtMS/stormMS {
			s.inStorm[c] = false
		}
	} else {
		calmMS := stormMS * (1 - frac) / frac
		if s.burstRNG.Float64() < dtMS/calmMS {
			s.inStorm[c] = true
		}
	}
}

// threadIntensity computes the (compute, memory) intensity of one thread in
// the current phase, applying thread skew, serialisation, and AR(1) noise.
func (s *Simulator) threadIntensity(c int, ph workload.Phase) (compute, mem float64) {
	p := &s.profiles[c]
	skew := 1.0
	if !s.mix && s.threads > 1 {
		skew = 1 - p.ThreadSkew*float64(c)/float64(s.threads-1)
	}

	// AR(1) activity noise, stationary variance NoiseSigma².
	phi := p.NoisePhi
	s.noise[c] = phi*s.noise[c] + p.NoiseSigma*sqrt1mPhi2(phi)*s.coreRNG[c].Norm()
	n := 1 + s.noise[c]
	if n < 0 {
		n = 0
	}

	compute = p.BaseCompute * ph.ComputeScale * skew * n
	mem = p.BaseMemory * ph.MemScale * skew * n
	if !s.mix && ph.Kind == workload.Serial && c != 0 {
		// Only thread 0 makes progress; the rest spin at low activity.
		// In multiprogrammed mode each core is its program's only thread,
		// so serial sections run at full speed.
		compute *= 0.08
		mem *= 0.05
	}
	return compute, mem
}

// sqrt1mPhi2 returns sqrt(1 − φ²), the innovation scaling that keeps an
// AR(1) process at its stationary variance.
func sqrt1mPhi2(phi float64) float64 {
	v := 1 - phi*phi
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}
