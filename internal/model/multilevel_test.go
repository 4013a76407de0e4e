package model

import (
	"math"
	"testing"
)

func TestHierarchyValidate(t *testing.T) {
	if err := SymmetryHierarchy().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Hierarchy{
		{H1: -0.1, H2: 0.5, T1: 1, T2: 5, TMem: 40},
		{H1: 0.9, H2: 1.5, T1: 1, T2: 5, TMem: 40},
		{H1: 0.9, H2: 0.5, T1: 0, T2: 5, TMem: 40},
		{H1: 0.9, H2: 0.5, T1: 5, T2: 5, TMem: 40},  // T2 not > T1
		{H1: 0.9, H2: 0.5, T1: 1, T2: 40, TMem: 40}, // TMem not > T2
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("bad hierarchy %d accepted", i)
		}
	}
}

// Hit rates of exactly 0 and exactly 1 are legal boundary values — only
// rates outside [0,1] are parameter errors.
func TestHierarchyValidateBoundaries(t *testing.T) {
	for _, h := range []Hierarchy{
		{H1: 0, H2: 0, T1: 1, T2: 5, TMem: 40},
		{H1: 1, H2: 1, T1: 1, T2: 5, TMem: 40},
	} {
		if err := h.Validate(); err != nil {
			t.Errorf("boundary hierarchy %+v rejected: %v", h, err)
		}
	}
}

// Raising either hit rate must strictly lower the mean access time: H1
// short-circuits the whole miss path, H2 the memory leg of it.
func TestEffectiveAccessMonotoneInHitRates(t *testing.T) {
	base := Hierarchy{H1: 0.5, H2: 0.5, T1: 1, T2: 5, TMem: 40}
	prev := math.Inf(1)
	for h1 := 0.0; h1 <= 1.0; h1 += 0.05 {
		h := base
		h.H1 = h1
		if got := h.EffectiveAccess(); got >= prev {
			t.Fatalf("EffectiveAccess not decreasing in H1 at %v: %v >= %v", h1, got, prev)
		} else {
			prev = got
		}
	}
	prev = math.Inf(1)
	for h2 := 0.0; h2 <= 1.0; h2 += 0.05 {
		h := base
		h.H2 = h2
		if got := h.EffectiveAccess(); got >= prev {
			t.Fatalf("EffectiveAccess not decreasing in H2 at %v: %v >= %v", h2, got, prev)
		} else {
			prev = got
		}
	}
	// With perfect first-level hits, only T1 remains.
	perfect := Hierarchy{H1: 1, H2: 0, T1: 1, T2: 5, TMem: 40}
	if got := perfect.EffectiveAccess(); got != perfect.T1 {
		t.Errorf("H1=1 effective access = %v, want T1 = %v", got, perfect.T1)
	}
}

// Section 7.2, at the paper's quoted hit rates (95% L1, 80% of L1 misses
// caught by L2): "hit rates could not be increased enough to obviate the
// need for faster miss resolution." Quantified: pushing H1 from 95% to the
// practical ceiling buys well under a 2x access-time improvement, so
// hit-rate-only scaling is already infeasible by a one-generation (8x)
// processor speedup.
func TestLittleRoomForImprovement(t *testing.T) {
	h := SymmetryHierarchy()
	ceiling := h
	ceiling.H1 = PracticalH1Ceiling
	gain := h.EffectiveAccess() / ceiling.EffectiveAccess()
	if gain <= 1 || gain >= 2 {
		t.Errorf("hit-rate headroom = %.3fx; the 'little room' claim expects a gain in (1, 2)", gain)
	}
	if _, ok := h.RequiredH1(4); !ok {
		t.Error("speed 4 should still be within the practical H1 ceiling")
	}
	if h1, ok := h.RequiredH1(8); ok {
		t.Errorf("speed 8 claimed feasible (required H1 %.4f) — contradicts Section 7.2", h1)
	}
}

func TestEffectiveAccessKnownValue(t *testing.T) {
	h := Hierarchy{H1: 0.9, H2: 0.5, T1: 1, T2: 10, TMem: 100}
	// 1 + 0.1*(10 + 0.5*100) = 1 + 6 = 7
	if got := h.EffectiveAccess(); math.Abs(got-7) > 1e-12 {
		t.Errorf("EffectiveAccess = %v, want 7", got)
	}
}

func TestRequiredH1AtUnitSpeedIsCurrent(t *testing.T) {
	h := SymmetryHierarchy()
	h1, ok := h.RequiredH1(1)
	if !ok {
		t.Fatal("unit speed infeasible")
	}
	if math.Abs(h1-h.H1) > 1e-9 {
		t.Errorf("RequiredH1(1) = %v, want %v", h1, h.H1)
	}
}

// The paper's Section-7.2 finding: hit rates cannot be increased enough to
// obviate faster miss resolution — beyond a modest speedup, the required
// first-level hit rate exceeds 1.
func TestHitRatesCannotSaveYou(t *testing.T) {
	h := SymmetryHierarchy()
	// Required H1 is monotone increasing in speed...
	prev := 0.0
	for _, s := range []float64{1, 2, 4, 8} {
		h1, _ := h.RequiredH1(s)
		if h1 < prev {
			t.Errorf("RequiredH1 not monotone at speed %v: %v < %v", s, h1, prev)
		}
		prev = h1
	}
	// ...and already infeasible at large speeds.
	if _, ok := h.RequiredH1(64); ok {
		t.Error("hit-rate-only scaling claimed feasible at 64x — contradicts the paper")
	}
	if math.IsNaN(prev) {
		t.Error("RequiredH1 returned NaN for positive speed")
	}
	if _, ok := h.RequiredH1(-1); ok {
		t.Error("negative speed feasible")
	}
}

func TestAnalyzeHierarchy(t *testing.T) {
	h := SymmetryHierarchy()
	rows, err := AnalyzeHierarchy(h, []float64{1, 4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Slowdown under the paper's sqrt(speed) miss-resolution assumption
	// grows with speed but stays far below linear dilation.
	if rows[0].EffectiveSlowdown != 1 {
		t.Errorf("slowdown at speed 1 = %v", rows[0].EffectiveSlowdown)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].EffectiveSlowdown <= rows[i-1].EffectiveSlowdown {
			t.Error("slowdown not increasing with speed")
		}
		if rows[i].EffectiveSlowdown >= rows[i].Speed {
			t.Errorf("slowdown %v at speed %v should be sub-linear",
				rows[i].EffectiveSlowdown, rows[i].Speed)
		}
	}
	// Feasibility flips from true to false somewhere.
	if !rows[0].Feasible {
		t.Error("speed 1 must be feasible")
	}
	if rows[3].Feasible {
		t.Error("speed 64 must be infeasible")
	}
	// Errors propagate.
	if _, err := AnalyzeHierarchy(Hierarchy{}, []float64{1}); err == nil {
		t.Error("invalid hierarchy accepted")
	}
	if _, err := AnalyzeHierarchy(h, []float64{0}); err == nil {
		t.Error("zero speed accepted")
	}
}
