package machine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestSymmetryMatchesPaper(t *testing.T) {
	c := Symmetry()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Processors != 20 {
		t.Errorf("Processors = %d, want 20", c.Processors)
	}
	if c.Cache.Lines() != 4096 {
		t.Errorf("cache lines = %d, want 4096", c.Cache.Lines())
	}
	if c.LineFill != simtime.Duration(750) {
		t.Errorf("LineFill = %v, want 750ns", c.LineFill)
	}
	if c.SwitchPath != 750*simtime.Microsecond {
		t.Errorf("SwitchPath = %v, want 750µs", c.SwitchPath)
	}
	// The paper's yardstick: at least 3.072 ms to fill the whole cache.
	if got := c.LineFill * simtime.Duration(c.Cache.Lines()); got != simtime.Microseconds(3072) {
		t.Errorf("full cache fill = %v, want 3.072ms", got)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	base := Symmetry()
	mutations := []func(*Config){
		func(c *Config) { c.Processors = 0 },
		func(c *Config) { c.Cache.LineBytes = 3 },
		func(c *Config) { c.LineFill = 0 },
		func(c *Config) { c.SwitchPath = -1 },
		func(c *Config) { c.Speed = 0 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestScaledAppliesPaperRules(t *testing.T) {
	base := Symmetry()
	s, err := base.Scaled(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Speed != 4 {
		t.Errorf("Speed = %v, want 4", s.Speed)
	}
	// Path length divides by speed.
	if s.SwitchPath != base.SwitchPath/4 {
		t.Errorf("SwitchPath = %v, want %v", s.SwitchPath, base.SwitchPath/4)
	}
	// Miss resolution divides by sqrt(speed) = 2.
	if s.LineFill != base.LineFill/2 {
		t.Errorf("LineFill = %v, want %v", s.LineFill, base.LineFill/2)
	}
	// Cache doubles.
	if s.Cache.SizeBytes != base.Cache.SizeBytes*2 {
		t.Errorf("cache size = %d, want %d", s.Cache.SizeBytes, base.Cache.SizeBytes*2)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("scaled config invalid: %v", err)
	}
}

func TestScaledRejectsBadFactors(t *testing.T) {
	base := Symmetry()
	if _, err := base.Scaled(0, 1); err == nil {
		t.Error("speed 0 accepted")
	}
	if _, err := base.Scaled(-1, 1); err == nil {
		t.Error("negative speed accepted")
	}
	if _, err := base.Scaled(1, 0); err == nil {
		t.Error("cache scale 0 accepted")
	}
}

func TestCompute(t *testing.T) {
	c := Symmetry()
	if got := c.Compute(simtime.Milliseconds(10)); got != simtime.Milliseconds(10) {
		t.Errorf("Compute at speed 1 changed duration: %v", got)
	}
	c.Speed = 2
	if got := c.Compute(simtime.Milliseconds(10)); got != simtime.Milliseconds(5) {
		t.Errorf("Compute at speed 2 = %v, want 5ms", got)
	}
}

// Property: composing Scaled twice multiplies the factors (within rounding).
func TestQuickScaledComposes(t *testing.T) {
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw%8) + 1
		b := float64(bRaw%8) + 1
		base := Symmetry()
		once, err := base.Scaled(a*b, 1)
		if err != nil {
			return false
		}
		s1, err := base.Scaled(a, 1)
		if err != nil {
			return false
		}
		twice, err := s1.Scaled(b, 1)
		if err != nil {
			return false
		}
		if math.Abs(float64(once.SwitchPath-twice.SwitchPath)) > 2 {
			return false
		}
		// LineFill uses sqrt, which rounds per step; allow slack.
		return math.Abs(float64(once.LineFill-twice.LineFill)) <= 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
