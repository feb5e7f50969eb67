package dvfs

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.Points = c.Points[:1] },
		func(c *Config) { c.Points[0].VddV = 0 },
		func(c *Config) { c.Points[1].VddV = c.Points[0].VddV },
		func(c *Config) { c.Points[1].FreqGHz = c.Points[0].FreqGHz },
		func(c *Config) { c.UpThreshold = 1.5 },
		func(c *Config) { c.DownThreshold = c.UpThreshold },
		func(c *Config) { c.HysteresisEpochs = 0 },
	}
	for i, mut := range muts {
		c := DefaultConfig()
		c.Points = append([]OperatingPoint(nil), c.Points...)
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestScalingFactors(t *testing.T) {
	c := DefaultConfig()
	nominal := c.Nominal()
	if nominal.VddV != 1.03 || nominal.FreqGHz != 4.0 {
		t.Fatalf("nominal point %+v", nominal)
	}
	if s := c.DynamicScale(nominal); math.Abs(s-1) > 1e-12 {
		t.Errorf("nominal dynamic scale %v", s)
	}
	if s := c.LeakageScale(nominal); math.Abs(s-1) > 1e-12 {
		t.Errorf("nominal leakage scale %v", s)
	}
	low := c.Points[0]
	// f·V² at 2.4GHz/0.8V vs 4GHz/1.03V: (2.4/4)·(0.8/1.03)² ≈ 0.362.
	want := (2.4 / 4.0) * (0.8 / 1.03) * (0.8 / 1.03)
	if s := c.DynamicScale(low); math.Abs(s-want) > 1e-12 {
		t.Errorf("low-point dynamic scale %v, want %v", s, want)
	}
	if s := c.PerformanceScale(low); math.Abs(s-0.6) > 1e-12 {
		t.Errorf("low-point performance scale %v, want 0.6", s)
	}
	if c.LeakageScale(low) >= 1 {
		t.Error("low point must leak less than nominal")
	}
}

func TestGovernorStartsNominal(t *testing.T) {
	g, err := NewGovernor(8, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 8; d++ {
		if g.Level(d) != 2 {
			t.Errorf("domain %d starts at level %d", d, g.Level(d))
		}
	}
}

func TestGovernorStepsDownUnderLowUtilisation(t *testing.T) {
	g, _ := NewGovernor(1, DefaultConfig())
	// Needs HysteresisEpochs consecutive low epochs to move one step.
	for i := 0; i < 2; i++ {
		if _, err := g.Observe(0, 0.1); err != nil {
			t.Fatal(err)
		}
		if g.Level(0) != 2 {
			t.Fatalf("stepped down after only %d epochs", i+1)
		}
	}
	if _, err := g.Observe(0, 0.1); err != nil {
		t.Fatal(err)
	}
	if g.Level(0) != 1 {
		t.Errorf("level %d after 3 low epochs, want 1", g.Level(0))
	}
	// Keep going to the floor, then stay.
	for i := 0; i < 10; i++ {
		_, _ = g.Observe(0, 0.05)
	}
	if g.Level(0) != 0 {
		t.Errorf("level %d, want floor 0", g.Level(0))
	}
}

func TestGovernorStepsUpUnderHighUtilisation(t *testing.T) {
	g, _ := NewGovernor(1, DefaultConfig())
	for i := 0; i < 10; i++ {
		_, _ = g.Observe(0, 0.05)
	}
	if g.Level(0) != 0 {
		t.Fatal("setup failed to reach floor")
	}
	for i := 0; i < 3; i++ {
		_, _ = g.Observe(0, 0.9)
	}
	if g.Level(0) != 1 {
		t.Errorf("level %d after 3 high epochs, want 1", g.Level(0))
	}
	for i := 0; i < 10; i++ {
		_, _ = g.Observe(0, 0.9)
	}
	if g.Level(0) != 2 {
		t.Errorf("level %d, want ceiling 2", g.Level(0))
	}
}

func TestGovernorHysteresisBreaksOnMidUtilisation(t *testing.T) {
	g, _ := NewGovernor(1, DefaultConfig())
	_, _ = g.Observe(0, 0.1)
	_, _ = g.Observe(0, 0.1)
	_, _ = g.Observe(0, 0.45) // mid-band resets the run
	_, _ = g.Observe(0, 0.1)
	_, _ = g.Observe(0, 0.1)
	if g.Level(0) != 2 {
		t.Errorf("level %d; interrupted runs must not accumulate", g.Level(0))
	}
}

func TestGovernorDomainsIndependent(t *testing.T) {
	g, _ := NewGovernor(2, DefaultConfig())
	for i := 0; i < 6; i++ {
		_, _ = g.Observe(0, 0.05)
		_, _ = g.Observe(1, 0.9)
	}
	if g.Level(0) >= g.Level(1) {
		t.Errorf("levels %d/%d; domains must move independently", g.Level(0), g.Level(1))
	}
}

func TestGovernorValidation(t *testing.T) {
	if _, err := NewGovernor(0, DefaultConfig()); err == nil {
		t.Error("zero domains accepted")
	}
	bad := DefaultConfig()
	bad.HysteresisEpochs = 0
	if _, err := NewGovernor(1, bad); err == nil {
		t.Error("invalid config accepted")
	}
	g, _ := NewGovernor(1, DefaultConfig())
	if _, err := g.Observe(5, 0.5); err == nil {
		t.Error("out-of-range domain accepted")
	}
}

func TestGovernorReset(t *testing.T) {
	g, _ := NewGovernor(1, DefaultConfig())
	for i := 0; i < 10; i++ {
		_, _ = g.Observe(0, 0.05)
	}
	g.Reset()
	if g.Level(0) != 2 {
		t.Errorf("level %d after reset", g.Level(0))
	}
}

func TestGovernorConfigAccessor(t *testing.T) {
	g, _ := NewGovernor(2, DefaultConfig())
	if len(g.Config().Points) != 3 {
		t.Errorf("Config ladder has %d points", len(g.Config().Points))
	}
	p := g.Point(0)
	if p != g.Config().Nominal() {
		t.Errorf("fresh domain not at nominal: %+v", p)
	}
}

func TestGovernorStateRestore(t *testing.T) {
	g, _ := NewGovernor(3, DefaultConfig())
	for i := 0; i < 7; i++ {
		_, _ = g.Observe(0, 0.05)
		_, _ = g.Observe(2, 0.5)
	}
	st := g.State()
	h, _ := NewGovernor(3, DefaultConfig())
	if err := h.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := h.State(); !reflect.DeepEqual(got, st) {
		t.Fatalf("restored state %+v, want %+v", got, st)
	}

	if err := h.Restore(nil); err == nil {
		t.Error("nil state accepted")
	}
	for _, tc := range []struct {
		name string
		mut  func(*State)
	}{
		{"Level", func(s *State) { s.Level = s.Level[:2] }},
		{"UpRun", func(s *State) { s.UpRun = s.UpRun[:2] }},
		{"DownRun", func(s *State) { s.DownRun = append(s.DownRun, 0) }},
	} {
		bad := g.State()
		tc.mut(bad)
		err := h.Restore(bad)
		if err == nil {
			t.Errorf("wrong-length %s accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "state "+tc.name+" covers") {
			t.Errorf("wrong-length %s reported as %q", tc.name, err)
		}
	}
	bad := g.State()
	bad.Level[1] = len(DefaultConfig().Points)
	if err := h.Restore(bad); err == nil {
		t.Error("level outside the ladder accepted")
	}
}
