package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// sampleOf returns a sample holding xs.
func sampleOf(xs ...float64) *Sample {
	s := &Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestEmptySample(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Variance()) ||
		!math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) ||
		!math.IsNaN(s.CI95()) {
		t.Error("empty sample statistics must be NaN")
	}
	if s.N() != 0 {
		t.Errorf("N = %d", s.N())
	}
}

func TestKnownValues(t *testing.T) {
	s := sampleOf(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Variance(); !almost(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v", got)
	}
}

func TestSingleObservation(t *testing.T) {
	var s Sample
	s.Add(3)
	if s.Mean() != 3 || s.Min() != 3 || s.Max() != 3 {
		t.Error("single-observation stats wrong")
	}
	if !math.IsNaN(s.Variance()) || !math.IsNaN(s.CI95()) {
		t.Error("variance/CI of single observation must be NaN")
	}
}

func TestCI95KnownCase(t *testing.T) {
	// n=5, sd known: CI = t(4) * sd / sqrt(5) with t(4)=2.776.
	s := sampleOf(1, 2, 3, 4, 5)
	sd := s.StdDev()
	want := 2.776 * sd / math.Sqrt(5)
	if got := s.CI95(); !almost(got, want, 1e-9) {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

func TestTCritical(t *testing.T) {
	if got := tCritical95(1); got != 12.706 {
		t.Errorf("t(1) = %v", got)
	}
	if got := tCritical95(30); got != 2.042 {
		t.Errorf("t(30) = %v", got)
	}
	if got := tCritical95(500); got != 1.960 {
		t.Errorf("t(500) = %v", got)
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Error("t(0) must be NaN")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio(4, 2); got != 2 {
		t.Errorf("Ratio = %v", got)
	}
	if !math.IsNaN(Ratio(1, 0)) {
		t.Error("Ratio by zero must be NaN")
	}
}

func TestString(t *testing.T) {
	if got := sampleOf(1, 2, 3).String(); got == "" {
		t.Error("empty String")
	}
}

// Property: mean lies within [min, max]; variance is non-negative.
func TestQuickMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		ok := false
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				s.Add(x)
				ok = true
			}
		}
		if !ok {
			return true
		}
		m := s.Mean()
		if m < s.Min()-1e-6 || m > s.Max()+1e-6 {
			return false
		}
		if s.N() >= 2 && s.Variance() < -1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: adding a constant c to every observation shifts the mean by c
// and leaves the variance unchanged.
func TestQuickShiftInvariance(t *testing.T) {
	rng := xrand.New(3, 3)
	f := func(cRaw int16) bool {
		c := float64(cRaw)
		var a, b Sample
		for i := 0; i < 50; i++ {
			x := rng.Float64() * 100
			a.Add(x)
			b.Add(x + c)
		}
		return almost(b.Mean(), a.Mean()+c, 1e-6) &&
			almost(b.Variance(), a.Variance(), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
