package model

import (
	"fmt"
	"math"
)

// Hierarchy is the simple two-level cache + central memory model the paper
// analyzes in Section 7.2 to justify its √speed miss-resolution assumption:
// "we analyzed a simple model consisting of two levels of cache memory and
// a single central memory. We found that because multiprocessor hit rates
// may already be expected to be quite high, there was little room for
// improvement: hit rates could not be increased enough to obviate the need
// for faster miss resolution."
//
// Times are in arbitrary units (conventionally first-level-cache cycles).
type Hierarchy struct {
	// H1 and H2 are the first- and second-level hit rates in [0, 1]
	// (H2 is the local hit rate of references that miss in L1).
	H1, H2 float64
	// T1, T2 and TMem are the access times of the first-level cache, the
	// second-level cache, and central memory.
	T1, T2, TMem float64
}

// Validate checks the hierarchy's parameters.
func (h Hierarchy) Validate() error {
	if h.H1 < 0 || h.H1 > 1 || h.H2 < 0 || h.H2 > 1 {
		return fmt.Errorf("model: hit rates %v/%v outside [0,1]", h.H1, h.H2)
	}
	if h.T1 <= 0 || h.T2 <= h.T1 || h.TMem <= h.T2 {
		return fmt.Errorf("model: access times must satisfy 0 < T1 < T2 < TMem, got %v/%v/%v",
			h.T1, h.T2, h.TMem)
	}
	return nil
}

// SymmetryHierarchy returns plausible 1991-era parameters: a 1-cycle L1, a
// 5-cycle L2, 40-cycle memory, and the high multiprocessor hit rates the
// paper assumes (95% L1, 80% of L1 misses caught by L2).
func SymmetryHierarchy() Hierarchy {
	return Hierarchy{H1: 0.95, H2: 0.80, T1: 1, T2: 5, TMem: 40}
}

// EffectiveAccess returns the mean memory access time:
// T1 + (1−H1)·(T2 + (1−H2)·TMem).
func (h Hierarchy) EffectiveAccess() float64 {
	return h.T1 + (1-h.H1)*(h.T2+(1-h.H2)*h.TMem)
}

// PracticalH1Ceiling is the highest first-level hit rate treated as
// achievable by real programs. The paper's Section-7.2 argument is exactly
// that multiprocessor hit rates are "already quite high" with "little room
// for improvement": required rates above this ceiling are infeasible even
// though they are arithmetically below one.
const PracticalH1Ceiling = 0.99

// RequiredH1 computes the first-level hit rate needed to keep the effective
// access time constant *in seconds* on a machine 'speed' times faster —
// i.e. EffectiveAccess must shrink to 1/speed of today's with cycle-scaled
// caches (T1, T2 shrink with speed) but memory latency fixed in seconds
// (TMem grows 'speed'× in cycles). The boolean reports whether the
// requirement is practically achievable (≤ PracticalH1Ceiling); beyond a
// modest speed it is not, which is the paper's point.
func (h Hierarchy) RequiredH1(speed float64) (float64, bool) {
	if speed <= 0 {
		return math.NaN(), false
	}
	// In cycle units of the faster machine: T1, T2 unchanged (they scale
	// with the clock), TMem_cycles = TMem * speed (fixed real latency).
	// Target: effective access in *seconds* unchanged relative to compute,
	// i.e. effective cycles must stay at today's EffectiveAccess().
	target := h.EffectiveAccess()
	memCycles := h.TMem * speed
	// target = T1 + (1-H1')*(T2 + (1-H2)*memCycles)  =>
	perMiss := h.T2 + (1-h.H2)*memCycles
	needMissRate := (target - h.T1) / perMiss
	h1 := 1 - needMissRate
	return h1, h1 <= PracticalH1Ceiling && needMissRate >= 0
}

// HierarchyAnalysis is one row of the Section-7.2 feasibility table.
type HierarchyAnalysis struct {
	Speed      float64
	RequiredH1 float64
	Feasible   bool
	// EffectiveSlowdown is the factor by which memory stalls dilate
	// compute if hit rates stay fixed and miss resolution only improves
	// by √speed (the paper's assumption).
	EffectiveSlowdown float64
}

// AnalyzeHierarchy evaluates the feasibility of hit-rate-only scaling for a
// range of processor speeds, reproducing the Section-7.2 argument.
func AnalyzeHierarchy(h Hierarchy, speeds []float64) ([]HierarchyAnalysis, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	var out []HierarchyAnalysis
	base := h.EffectiveAccess()
	for _, s := range speeds {
		if s <= 0 {
			return nil, fmt.Errorf("model: non-positive speed %v", s)
		}
		h1, ok := h.RequiredH1(s)
		// With miss resolution improved √s (paper's assumption), memory
		// costs s/√s = √s more cycles; effective access in cycles:
		eff := h.T1 + (1-h.H1)*(h.T2+(1-h.H2)*h.TMem*s/math.Sqrt(s))
		out = append(out, HierarchyAnalysis{
			Speed:             s,
			RequiredH1:        h1,
			Feasible:          ok,
			EffectiveSlowdown: eff / base,
		})
	}
	return out, nil
}
