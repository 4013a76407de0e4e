// Package memtrace generates the synthetic memory reference streams that
// stand in for the paper's three applications (MVA, MATRIX, GRAVITY) when
// driving the exact cache simulator.
//
// # Model
//
// A Pattern is a mixture of cyclic sweep components. Component i is a region
// of Lines_i cache lines that the program re-walks completely once every
// Period_i of execution time; on each reference the generator picks a
// component with probability proportional to Lines_i*Gap/Period_i and
// advances that component's walk by one line. References not assigned to
// any component re-touch the most recently touched line, representing the
// very-short-distance locality (registers, current line) that never causes
// cache traffic.
//
// This two-parameter-per-component model captures the property the paper's
// Section 4 measurements hinge on: a program's "live" cache footprint
// (lines that will be re-referenced while still cacheable) is re-touched at
// a characteristic rate, so the cache penalty of losing the footprint is a
// saturating function of the scheduling quantum Q — small quanta re-touch
// only part of the footprint before the next disruption, large quanta
// re-touch all of it. The default patterns below are calibrated so that the
// Table-1 harness reproduces the paper's shape (see EXPERIMENTS.md).
//
// # Application patterns
//
//   - MATRIX: blocked matrix multiply. Reuse at two scales — the current
//     block pair (fast) and the full block working set sized to the cache
//     (slow) — plus a small hot set of loop state.
//   - MVA: wavefront dynamic programming. Fast reuse of the current and
//     previous diagonal, slow reuse of the whole table.
//   - GRAVITY: Barnes-Hut. One large, slowly and irregularly re-walked
//     region (tree + bodies), walked in pseudo-random permutation order,
//     plus hot loop state.
package memtrace

import (
	"fmt"
	"math"

	"repro/internal/simtime"
	"repro/internal/xrand"
)

// Component is one cyclic reuse scale of a pattern.
type Component struct {
	// Lines is the region size in cache lines.
	Lines int
	// Period is the execution time over which the region is walked once.
	Period simtime.Duration
	// Permuted selects pseudo-random walk order instead of sequential.
	Permuted bool
}

// Pattern describes an application's reference behaviour.
type Pattern struct {
	// Name identifies the application.
	Name string
	// Gap is the execution (think) time between successive line references.
	Gap simtime.Duration
	// Components are the reuse scales; their selection weights
	// Lines*Gap/Period must sum to at most 1.
	Components []Component
	// PhaseEvery, when non-zero, relocates every region to fresh addresses
	// each time this much execution time passes, modelling computation
	// phases that abandon old data (new block pairs, new time steps).
	PhaseEvery simtime.Duration
}

// LineBytes is the address granularity of generated references. It matches
// the Symmetry's 16-byte cache line; generators emit one address per line
// touch, so line size only scales addresses.
const LineBytes = 16

// Validate checks the pattern's internal consistency.
func (p Pattern) Validate() error {
	if p.Gap <= 0 {
		return fmt.Errorf("memtrace: %s: Gap must be positive", p.Name)
	}
	if len(p.Components) == 0 {
		return fmt.Errorf("memtrace: %s: no components", p.Name)
	}
	for i, c := range p.Components {
		if c.Lines <= 0 || c.Period <= 0 {
			return fmt.Errorf("memtrace: %s: component %d has non-positive Lines/Period", p.Name, i)
		}
	}
	if total := p.RegionShare(); total > 1+1e-9 {
		return fmt.Errorf("memtrace: %s: component weights sum to %.3f > 1", p.Name, total)
	}
	return nil
}

func (c Component) weight(gap simtime.Duration) float64 {
	return float64(c.Lines) * float64(gap) / float64(c.Period)
}

// RegionShare returns the probability that a reference goes to one of the
// pattern's regions, the sum of the component selection weights; the rest
// re-touch the previous line.
func (p Pattern) RegionShare() float64 {
	total := 0.0
	for _, c := range p.Components {
		total += c.weight(p.Gap)
	}
	return total
}

// LiveFootprint returns the total region size in lines: the asymptotic
// number of distinct lines with cacheable reuse. This parameterizes the
// analytic footprint model in internal/footprint.
func (p Pattern) LiveFootprint() int {
	total := 0
	for _, c := range p.Components {
		total += c.Lines
	}
	return total
}

// TouchRate returns the expected number of distinct region lines touched
// during an execution interval of length d, assuming each component's walk
// covers its region uniformly: sum_i Lines_i * min(d/Period_i, 1).
func (p Pattern) TouchRate(d simtime.Duration) float64 {
	total := 0.0
	for _, c := range p.Components {
		frac := float64(d) / float64(c.Period)
		if frac > 1 {
			frac = 1
		}
		total += float64(c.Lines) * frac
	}
	return total
}

// Generator produces the reference stream of one running task.
type Generator struct {
	pat  Pattern
	rng  *xrand.Source
	base uint64
	// thresh[k] is ceil(cum_k * 2^53), cum_k the cumulative selection
	// weight of components 0..k: a draw u = x/2^53, x a 53-bit integer,
	// falls below cum_k exactly when x < thresh[k], so the component a
	// draw picks is the number of thresholds x reaches.
	thresh []uint64
	// slots holds one walk per component, then the re-touch sentinel a
	// draw past every threshold picks.
	slots   []slot
	phase   uint64 // phase counter, relocates regions
	elapsed simtime.Duration
	last    uint64 // most recently emitted address
	emitted uint64
}

// slot is one component's walk over its region: order lists the region's
// lines in visiting order (a permutation, or the shared identity order
// for a sequential walk), pos indexes the next line to touch, and addr is
// the byte address of the region's line 0. The re-touch sentinel walks a
// one-line identity order.
type slot struct {
	order []int32
	addr  uint64
	pos   int
}

// identity is the walk order of every sequential region of up to
// len(identity) lines, shared by all generators: entry i is i. It is
// filled at start-up and never written after.
var identity = func() (o [4096]int32) {
	for i := range o {
		o[i] = int32(i)
	}
	return o
}()

// identityOrder returns the identity walk order of n lines: a slice of
// the shared table when it is long enough, else a private copy.
func identityOrder(n int) []int32 {
	if n <= len(identity) {
		return identity[:n:n]
	}
	o := make([]int32, n)
	for i := range o {
		o[i] = int32(i)
	}
	return o
}

// NewGenerator builds a generator for pattern p. base is the task's address
// space origin (distinct tasks must use disjoint bases); seed fixes the
// random walk. NewGenerator panics if the pattern is invalid, since all
// patterns are program constants.
func NewGenerator(p Pattern, base uint64, seed uint64) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{
		pat:   p,
		rng:   xrand.New(seed, 0x7a5e),
		base:  base,
		slots: make([]slot, len(p.Components)+1),
		last:  base,
	}
	cum := 0.0
	for i, c := range p.Components {
		cum += c.weight(p.Gap)
		// Scaling by 2^53 is exact, and so is the ceiling.
		g.thresh = append(g.thresh, uint64(math.Ceil(cum*(1<<53))))
		if !c.Permuted {
			g.slots[i].order = identityOrder(c.Lines)
		}
	}
	g.slots[len(p.Components)].order = identityOrder(1)
	g.layoutRegions()
	return g
}

// layoutRegions assigns each component a contiguous region of lines,
// shifted by the current phase so that phase changes reference fresh
// addresses, draws each permuted component's walk order, and rewinds the
// walks.
func (g *Generator) layoutRegions() {
	off := g.phase * uint64(g.pat.LiveFootprint()+1024)
	for i, c := range g.pat.Components {
		s := &g.slots[i]
		if c.Permuted {
			p := g.rng.Perm(c.Lines)
			s.order = make([]int32, c.Lines)
			for j, v := range p {
				s.order[j] = int32(v)
			}
		}
		s.addr = g.base + off*LineBytes
		s.pos = 0
		off += uint64(c.Lines)
	}
}

// Next returns the next referenced byte address and the execution time that
// precedes the reference. It is the single-reference form of FillBlock; the
// think time is always the pattern's Gap.
func (g *Generator) Next() (addr uint64, think simtime.Duration) {
	var one [1]uint64
	g.FillBlock(one[:])
	return one[0], g.pat.Gap
}

// Gap returns the execution (think) time between successive references —
// constant for a generator, so callers can convert an execution interval
// into an exact reference count: an interval w consumes RefsFor(w)
// references.
func (g *Generator) Gap() simtime.Duration { return g.pat.Gap }

// RefsFor returns the number of references Next (or FillBlock) produces
// while executing for w: each reference is preceded by Gap of think time,
// so the count is ceil(w/Gap). Zero for non-positive w.
func (g *Generator) RefsFor(w simtime.Duration) int {
	if w <= 0 {
		return 0
	}
	gap := g.pat.Gap
	return int((w + gap - 1) / gap)
}

// FillBlock generates the next len(dst) referenced byte addresses into dst,
// exactly equivalent to len(dst) successive Next calls. Batching keeps the
// generator state (rng, elapsed clock, last address) in registers across
// the block, with no per-call setup: the selection thresholds and walks
// are kept current by NewGenerator and layoutRegions.
//
// Every reference runs the same instructions, whichever component its
// draw picks: one rng draw, a count of the thresholds the draw reaches
// (branch-free, over a fixed number of components), one walk step in the
// picked slot, and a conditional move of its address into last, which the
// re-touch sentinel skips. No branch depends on the draw, so none is
// mispredicted at random. BenchmarkFillBlock measures 16-19 ns a
// reference for the built-in patterns on one core of an Intel Xeon; a
// select by float compares, breaking out of a loop over the components,
// costs 27-31 ns there.
func (g *Generator) FillBlock(dst []uint64) {
	gap := g.pat.Gap
	rng := *g.rng
	thresh := g.thresh
	slots := g.slots
	retouch := len(thresh)
	elapsed := g.elapsed
	last := g.last
	// Next phase boundary; Never when the pattern has no phases.
	nextPhase := simtime.Duration(simtime.Never)
	if g.pat.PhaseEvery > 0 {
		nextPhase = simtime.Duration(g.phase+1) * g.pat.PhaseEvery
	}
	for i := 0; i < len(dst); {
		if elapsed+gap >= nextPhase {
			// The next reference crosses a phase boundary. layoutRegions
			// draws the new permutations from g.rng.
			*g.rng = rng
			g.phase++
			g.layoutRegions()
			rng = *g.rng
			nextPhase = simtime.Duration(g.phase+1) * g.pat.PhaseEvery
		}
		// The next reference, and every later one whose clock stays short
		// of the phase boundary, runs without a check or a call, so the
		// loop below keeps its state in registers.
		n := 1
		if left := nextPhase - elapsed - 1; left >= gap {
			n = int(min(left/gap, simtime.Duration(len(dst)-i)))
		}
		elapsed += simtime.Duration(n) * gap
		for end := i + n; i < end; i++ {
			// rng.Uint64() >> 11, spelled out so that the draws inline.
			x := (uint64(rng.Uint32())<<32 | uint64(rng.Uint32())) >> 11
			k := 0
			for _, t := range thresh {
				// 1 when x >= t: both are below 2^63, so x-t wraps to a
				// set top bit exactly when x < t.
				k += int((x-t)>>63 ^ 1)
			}
			s := &slots[k]
			idx := s.pos
			next := idx + 1
			if next == len(s.order) {
				next = 0
			}
			s.pos = next
			addr := s.addr + uint64(s.order[idx])*LineBytes
			if k != retouch {
				last = addr
			}
			// Otherwise very local reuse: re-touch the last line.
			dst[i] = last
		}
	}
	*g.rng = rng
	g.elapsed = elapsed
	g.last = last
	g.emitted += uint64(len(dst))
}

// Mark is a saved generator position for Save/Restore. The zero value is
// ready to use; a Mark's buffers are reused across Saves, so a long-lived
// Mark makes the save/restore cycle allocation-free.
type Mark struct {
	rng     xrand.Source
	slots   []slot
	phase   uint64
	elapsed simtime.Duration
	last    uint64
	emitted uint64
	valid   bool
}

// Save records the generator's exact position in m. A later Restore(m)
// rewinds the generator to this position, after which it reproduces the
// same reference stream it produced the first time. This is what lets the
// exact cache model roll back a speculatively replayed segment (see
// internal/cachemodel) and the measurement harness un-consume block
// overshoot (see internal/measure).
func (g *Generator) Save(m *Mark) {
	m.rng = *g.rng
	// Walk orders are replaced wholesale on phase changes and never
	// mutated in place, so copying the slots pins them.
	m.slots = append(m.slots[:0], g.slots...)
	m.phase = g.phase
	m.elapsed = g.elapsed
	m.last = g.last
	m.emitted = g.emitted
	m.valid = true
}

// Restore rewinds the generator to the position recorded by Save. It panics
// on a Mark that was never saved, or saved from a generator with a
// different component count.
func (g *Generator) Restore(m *Mark) {
	if !m.valid || len(m.slots) != len(g.slots) {
		panic("memtrace: Restore from a foreign or unsaved Mark")
	}
	*g.rng = m.rng
	copy(g.slots, m.slots)
	g.phase = m.phase
	g.elapsed = m.elapsed
	g.last = m.last
	g.emitted = m.emitted
}

// Emitted returns the number of references generated so far.
func (g *Generator) Emitted() uint64 { return g.emitted }

// Elapsed returns the total execution (think) time generated so far.
func (g *Generator) Elapsed() simtime.Duration { return g.elapsed }

// Default per-reference execution gap: 5 µs of compute per line-granularity
// touch (≈200 line touches per millisecond on the 16 MHz Symmetry CPU).
const defaultGap = 5 * simtime.Microsecond

// MatrixPattern returns the calibrated MATRIX (blocked matrix multiply)
// reference pattern.
func MatrixPattern() Pattern {
	return Pattern{
		Name: "MATRIX",
		Gap:  defaultGap,
		Components: []Component{
			{Lines: 64, Period: 1 * simtime.Millisecond},     // loop state, indices
			{Lines: 1150, Period: 25 * simtime.Millisecond},  // current block pair
			{Lines: 1150, Period: 350 * simtime.Millisecond}, // full cache-sized block set
		},
	}
}

// MVAPattern returns the calibrated MVA (wavefront dynamic programming)
// reference pattern.
func MVAPattern() Pattern {
	return Pattern{
		Name: "MVA",
		Gap:  defaultGap,
		Components: []Component{
			{Lines: 64, Period: 1 * simtime.Millisecond},     // loop state
			{Lines: 1100, Period: 20 * simtime.Millisecond},  // current + previous diagonal
			{Lines: 2100, Period: 420 * simtime.Millisecond}, // whole table
		},
	}
}

// GravityPattern returns the calibrated GRAVITY (Barnes-Hut) reference
// pattern.
func GravityPattern() Pattern {
	return Pattern{
		Name: "GRAVITY",
		Gap:  defaultGap,
		Components: []Component{
			{Lines: 64, Period: 1 * simtime.Millisecond},                     // loop state
			{Lines: 3500, Period: 130 * simtime.Millisecond, Permuted: true}, // tree + bodies
		},
		PhaseEvery: 900 * simtime.Millisecond, // new simulation time step
	}
}

// Patterns returns the three calibrated application patterns in the order
// the paper lists them (MVA, MATRIX, GRAVITY).
func Patterns() []Pattern {
	return []Pattern{MVAPattern(), MatrixPattern(), GravityPattern()}
}

// Clone returns an independent copy of the generator: the copy and the
// original produce identical subsequent streams but advance separately.
// Cloning is what lets the exact cache model "plan" a segment's misses on
// scratch state before committing it (see internal/cachemodel).
func (g *Generator) Clone() *Generator {
	out := *g
	out.rng = g.rng.Clone()
	// thresh is never mutated, and walk orders are replaced wholesale on
	// phase changes, never mutated in place, so the copy shares their
	// backing arrays; the slots themselves need copying.
	out.slots = append([]slot(nil), g.slots...)
	return &out
}
