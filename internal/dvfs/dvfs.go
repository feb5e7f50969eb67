// Package dvfs implements per-domain dynamic voltage and frequency
// scaling — the capability distributed on-chip regulation exists to
// enable. The paper's Section 1 sets the stage ("tailoring Vdd to
// fine-grain temporal changes in the power and performance needs of the
// workload can effectively enhance power efficiency … power managers can
// control the Vdd of each domain separately"), and its POWER8 reference
// design is literally titled "Distributed System of Digitally Controlled
// Microregulators Enabling Per-Core DVFS". This package supplies the
// utilisation-driven per-core DVFS governor the simulator can layer under
// ThermoGater: lowering a core's operating point lowers its power and
// hence the current its Vdd-domain's regulators must carry, which the
// gating policies then translate into fewer active regulators.
package dvfs

import (
	"errors"
	"fmt"
	"math"
)

// OperatingPoint is one voltage/frequency pair.
type OperatingPoint struct {
	// VddV is the supply voltage.
	VddV float64
	// FreqGHz is the core clock.
	FreqGHz float64
}

// Config parameterises the governor.
type Config struct {
	// Points lists the available operating points in ascending
	// performance order; the last entry is the nominal (maximum) point.
	Points []OperatingPoint
	// UpThreshold and DownThreshold are the utilisation levels above /
	// below which a domain steps up / down one point.
	UpThreshold, DownThreshold float64
	// HysteresisEpochs is how many consecutive epochs the threshold must
	// hold before a transition fires, suppressing oscillation.
	HysteresisEpochs int
}

// DefaultConfig returns a three-point ladder below the chip's nominal
// 1.03V/4GHz operating point (Table 1).
func DefaultConfig() Config {
	return Config{
		Points: []OperatingPoint{
			{VddV: 0.80, FreqGHz: 2.4},
			{VddV: 0.92, FreqGHz: 3.2},
			{VddV: 1.03, FreqGHz: 4.0},
		},
		UpThreshold:      0.60,
		DownThreshold:    0.30,
		HysteresisEpochs: 3,
	}
}

// Validate rejects inconsistent ladders.
func (c Config) Validate() error {
	if len(c.Points) < 2 {
		return errors.New("dvfs: need at least two operating points")
	}
	for i, p := range c.Points {
		if !(p.VddV > 0) || !(p.FreqGHz > 0) || math.IsInf(p.VddV, 1) || math.IsInf(p.FreqGHz, 1) {
			return fmt.Errorf("dvfs: point %d not positive and finite", i)
		}
		if i > 0 {
			prev := c.Points[i-1]
			if p.VddV <= prev.VddV || p.FreqGHz <= prev.FreqGHz {
				return fmt.Errorf("dvfs: points not strictly ascending at %d", i)
			}
		}
	}
	if !(c.DownThreshold >= 0 && c.DownThreshold < c.UpThreshold && c.UpThreshold <= 1) {
		return errors.New("dvfs: thresholds must satisfy 0 ≤ down < up ≤ 1")
	}
	if c.HysteresisEpochs < 1 {
		return errors.New("dvfs: hysteresis must be at least one epoch")
	}
	return nil
}

// Nominal returns the top operating point.
func (c Config) Nominal() OperatingPoint { return c.Points[len(c.Points)-1] }

// DynamicScale returns the dynamic-power multiplier of point p relative to
// nominal: P_dyn ∝ f·V².
func (c Config) DynamicScale(p OperatingPoint) float64 {
	n := c.Nominal()
	return (p.FreqGHz / n.FreqGHz) * (p.VddV / n.VddV) * (p.VddV / n.VddV)
}

// LeakageScale returns the static-power multiplier of point p relative to
// nominal: leakage roughly tracks V (DIBL-dominated at iso-temperature).
func (c Config) LeakageScale(p OperatingPoint) float64 {
	return p.VddV / c.Nominal().VddV
}

// PerformanceScale returns the throughput multiplier of point p: work per
// wall-clock tracks frequency.
func (c Config) PerformanceScale(p OperatingPoint) float64 {
	return p.FreqGHz / c.Nominal().FreqGHz
}

// Governor holds the per-domain DVFS state.
type Governor struct {
	cfg     Config
	level   []int
	upRun   []int
	downRun []int
}

// NewGovernor creates a governor for the given domain count, starting
// every domain at the nominal point.
func NewGovernor(domains int, cfg Config) (*Governor, error) {
	if domains < 1 {
		return nil, errors.New("dvfs: need at least one domain")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Governor{
		cfg:     cfg,
		level:   make([]int, domains),
		upRun:   make([]int, domains),
		downRun: make([]int, domains),
	}
	for d := range g.level {
		g.level[d] = len(cfg.Points) - 1
	}
	return g, nil
}

// Config returns the governor's ladder.
func (g *Governor) Config() Config { return g.cfg }

// Point returns the domain's current operating point.
func (g *Governor) Point(domain int) OperatingPoint {
	return g.cfg.Points[g.level[domain]]
}

// Level returns the domain's current ladder index.
func (g *Governor) Level(domain int) int { return g.level[domain] }

// Observe feeds one epoch's utilisation (0..1) for the domain and applies
// the hysteretic step-up/step-down rule; it returns the (possibly new)
// ladder level.
func (g *Governor) Observe(domain int, utilisation float64) (int, error) {
	if domain < 0 || domain >= len(g.level) {
		return 0, fmt.Errorf("dvfs: domain %d out of range", domain)
	}
	switch {
	case utilisation > g.cfg.UpThreshold:
		g.upRun[domain]++
		g.downRun[domain] = 0
	case utilisation < g.cfg.DownThreshold:
		g.downRun[domain]++
		g.upRun[domain] = 0
	default:
		g.upRun[domain] = 0
		g.downRun[domain] = 0
	}
	if g.upRun[domain] >= g.cfg.HysteresisEpochs && g.level[domain] < len(g.cfg.Points)-1 {
		g.level[domain]++
		g.upRun[domain] = 0
	}
	if g.downRun[domain] >= g.cfg.HysteresisEpochs && g.level[domain] > 0 {
		g.level[domain]--
		g.downRun[domain] = 0
	}
	return g.level[domain], nil
}

// State is a governor snapshot for checkpointing.
type State struct {
	Level   []int
	UpRun   []int
	DownRun []int
}

// State snapshots the governor.
func (g *Governor) State() *State {
	return &State{
		Level:   append([]int(nil), g.level...),
		UpRun:   append([]int(nil), g.upRun...),
		DownRun: append([]int(nil), g.downRun...),
	}
}

// Restore loads a snapshot taken by State on a governor over the same
// domain count and ladder.
func (g *Governor) Restore(s *State) error {
	if s == nil {
		return errors.New("dvfs: nil state")
	}
	for _, f := range []struct {
		name string
		n    int
	}{{"Level", len(s.Level)}, {"UpRun", len(s.UpRun)}, {"DownRun", len(s.DownRun)}} {
		if f.n != len(g.level) {
			return fmt.Errorf("dvfs: state %s covers %d domains, governor has %d", f.name, f.n, len(g.level))
		}
	}
	for d, l := range s.Level {
		if l < 0 || l >= len(g.cfg.Points) {
			return fmt.Errorf("dvfs: state level %d outside ladder of %d points", l, len(g.cfg.Points))
		}
		g.level[d] = l
		g.upRun[d] = s.UpRun[d]
		g.downRun[d] = s.DownRun[d]
	}
	return nil
}

// Reset returns every domain to the nominal point.
func (g *Governor) Reset() {
	for d := range g.level {
		g.level[d] = len(g.cfg.Points) - 1
		g.upRun[d] = 0
		g.downRun[d] = 0
	}
}
