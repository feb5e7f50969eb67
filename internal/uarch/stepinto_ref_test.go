package uarch

// Bit-identity test for StepInto's shared phase lookup: refStepInto is
// StepInto as it stood before the lookup was hoisted — one PhaseAt call per
// thread per frame — kept verbatim, and the current code must produce the
// same frames bit for bit, with and without a mix.

import (
	"fmt"
	"math"
	"testing"

	"thermogater/internal/floorplan"
	"thermogater/internal/workload"
)

func refStepInto(s *Simulator, dtMS float64, f *Frame) error {
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

		var act [floorplan.NumUnitClasses]float64
		act[floorplan.UnitEXU] = clamp01(compute)
		act[floorplan.UnitLSU] = clamp01(mem)
		act[floorplan.UnitISU] = clamp01(0.55*compute + 0.25*mem)
		act[floorplan.UnitIFU] = clamp01(0.45*compute + 0.25*mem)
		act[floorplan.UnitL2] = clamp01(6 * mem * p.L1Miss)
		for _, bid := range s.coreBlocks[c] {
			f.Activity[bid] = act[s.chip.Blocks[bid].Class]
		}

		traffic := mem * p.L1Miss * p.L2Miss
		totalL3Traffic += traffic
		for b := range bankTraffic {
			bankTraffic[b] += traffic * s.bankWeight[c][b]
		}
		mcTraffic += traffic * p.L3Miss

		f.IPC[c] = 8 * (0.55*compute + 0.35*mem) * (1 - 0.5*p.L1Miss*mem)

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

// sameFrame reports the first difference between two frames, bit for bit.
func sameFrame(a, b *Frame) error {
	if math.Float64bits(a.TimeMS) != math.Float64bits(b.TimeMS) || math.Float64bits(a.DtMS) != math.Float64bits(b.DtMS) {
		return fmt.Errorf("time %v+%v, reference %v+%v", a.TimeMS, a.DtMS, b.TimeMS, b.DtMS)
	}
	for i := range b.Activity {
		if math.Float64bits(a.Activity[i]) != math.Float64bits(b.Activity[i]) {
			return fmt.Errorf("activity[%d] %v, reference %v", i, a.Activity[i], b.Activity[i])
		}
	}
	for i := range b.IPC {
		if math.Float64bits(a.IPC[i]) != math.Float64bits(b.IPC[i]) {
			return fmt.Errorf("IPC[%d] %v, reference %v", i, a.IPC[i], b.IPC[i])
		}
	}
	if len(a.Bursts) != len(b.Bursts) {
		return fmt.Errorf("%d bursts, reference %d", len(a.Bursts), len(b.Bursts))
	}
	for i := range b.Bursts {
		if a.Bursts[i] != b.Bursts[i] {
			return fmt.Errorf("burst %d %+v, reference %+v", i, a.Bursts[i], b.Bursts[i])
		}
	}
	return nil
}

// TestStepIntoMatchesPerThreadPhase steps twin simulators — one through
// StepInto, one through the reference — for 30 ms of 100 µs frames (long
// enough to cross every benchmark's phase boundaries) on every benchmark
// without a mix, and on a mix of eight different benchmarks.
func TestStepIntoMatchesPerThreadPhase(t *testing.T) {
	chip := floorplan.MustPOWER8()
	suite := workload.Suite()
	type twin struct {
		name     string
		got, ref *Simulator
	}
	var twins []twin
	for _, p := range suite {
		got, err := New(chip, p, 17)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := New(chip, p, 17)
		if err != nil {
			t.Fatal(err)
		}
		twins = append(twins, twin{p.Name, got, ref})
	}
	mix := make([]workload.Profile, floorplan.NumCores)
	for c := range mix {
		mix[c] = suite[(3*c)%len(suite)]
	}
	got, err := NewMix(chip, mix, 17)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewMix(chip, mix, 17)
	if err != nil {
		t.Fatal(err)
	}
	twins = append(twins, twin{"mix", got, ref})

	for _, tw := range twins {
		var a, b Frame
		phases := map[workload.Phase]bool{}
		for step := 0; step < 300; step++ {
			if err := tw.got.StepInto(DefaultStepMS, &a); err != nil {
				t.Fatal(err)
			}
			if err := refStepInto(tw.ref, DefaultStepMS, &b); err != nil {
				t.Fatal(err)
			}
			if err := sameFrame(&a, &b); err != nil {
				t.Fatalf("%s step %d: %v", tw.name, step, err)
			}
			phases[tw.got.profiles[0].PhaseAt(a.TimeMS)] = true
		}
		if tw.name != "mix" && len(tw.got.profiles[0].Phases) > 1 && len(phases) < 2 {
			t.Errorf("%s: 300 frames stayed in one phase; the phase change is untested", tw.name)
		}
	}
}
