// Package measure reproduces the paper's Section 4 experiment: quantifying
// the per-context-switch cache penalties P^A (task resumes on a processor
// for which it has affinity, after an intervening task ran there) and P^NA
// (task resumes on a processor with no affinity, i.e. a cold cache).
//
// The experimental design follows the paper exactly. The measured program
// runs on a single processor under a special allocator that reschedules it
// every Q of its own execution time, taking one of three actions at each
// switch point:
//
//   - Stationary: the program is immediately replaced; its response time
//     RT_stationary is the baseline.
//   - Migrating: the cache is flushed (the paper streams through memory),
//     then the program is replaced, capturing the no-affinity penalty;
//     response time RT_migrating.
//   - Multiprogrammed: a task from another program runs on the processor
//     for Q, then the original is replaced, capturing the penalty incurred
//     despite affinity; response time RT_multiprog.
//
// Then P^NA = (RT_migrating − RT_stationary)/#switches and
// P^A = (RT_multiprog − RT_stationary)/#switches.
//
// "Response time" here is the measured program's own accumulated time
// (compute + its cache-miss stalls + its switch path costs), so the
// intervening program's execution does not pollute the numerator — the
// deltas isolate pure cache effects, exactly the quantities tabulated in
// the paper's Table 1.
package measure

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memtrace"
	"repro/internal/parallel"
	"repro/internal/simtime"
)

// Regime selects the action taken at each switch point.
type Regime int

// The three Section-4 regimes.
const (
	Stationary Regime = iota
	Migrating
	Multiprog
)

// String names the regime.
func (r Regime) String() string {
	switch r {
	case Stationary:
		return "stationary"
	case Migrating:
		return "migrating"
	case Multiprog:
		return "multiprog"
	}
	return fmt.Sprintf("Regime(%d)", int(r))
}

// Options configures a measurement run.
type Options struct {
	// Q is the rescheduling interval.
	Q simtime.Duration
	// Budget is the amount of pure compute the measured program executes;
	// the run ends when it is consumed.
	Budget simtime.Duration
	// Seed fixes all random walks in the run.
	Seed uint64
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Q <= 0 {
		return fmt.Errorf("measure: Q must be positive, got %v", o.Q)
	}
	if o.Budget < o.Q {
		return fmt.Errorf("measure: budget %v shorter than one quantum %v", o.Budget, o.Q)
	}
	return nil
}

// RunResult reports one single-regime run.
type RunResult struct {
	Regime Regime
	// ResponseTime is the measured program's accumulated own time.
	ResponseTime simtime.Duration
	// Switches is the number of rescheduling points that occurred.
	Switches int
	// Misses is the measured program's cache miss count.
	Misses uint64
	// Accesses is the measured program's reference count.
	Accesses uint64
}

// ownerMeasured and ownerIntervening tag cache lines in the shared cache.
const (
	ownerMeasured    = 0
	ownerIntervening = 1
)

// interveningBase keeps the intervening program's address space disjoint
// from the measured program's (separate processes share nothing).
const interveningBase = 1 << 40

// Stream is a precomputed prefix of one program's reference stream, stored
// as 32-bit line indices relative to the stream's address base, plus a
// generator parked at the prefix end for the (rare) references beyond it.
// Reference i is the byte address base + lines[i]*memtrace.LineBytes:
// generators emit one line-aligned address per touch, so the index loses
// nothing and takes half the memory of the address.
//
// The reference streams of this experiment are fixed by (pattern, address
// base, seed) alone: think time is one gap per reference, and nothing the
// cache or the scheduler does feeds back into address generation. Every run
// of a Table 1 cell therefore replays the same measured stream, and every
// multiprogrammed run against the same intervening application consumes a
// prefix of the same intervening stream. Precomputing each stream once and
// sharing it read-only across runs (and across the cells of a StreamSet)
// removes the dominant generator cost from the hot loop while staying
// trivially bitwise identical to per-reference generation.
type Stream struct {
	base  uint64
	lines []uint32
	gap   simtime.Duration
	tail  *memtrace.Generator // positioned after lines; cloned, never mutated
}

// streamBlock is the address-batch size of stream construction.
const streamBlock = 4096

// newStream precomputes a budget's worth of compute of the pattern's
// stream: exactly the references that much execution performs. It fails,
// rather than wrapping, if a line index does not fit in 32 bits. A Stream
// is immutable after construction and safe for concurrent use.
func newStream(pat memtrace.Pattern, base, seed uint64, budget simtime.Duration) (*Stream, error) {
	g := memtrace.NewGenerator(pat, base, seed)
	s := &Stream{base: base, lines: make([]uint32, g.RefsFor(budget)), gap: g.Gap()}
	var buf [streamBlock]uint64
	for done := 0; done < len(s.lines); {
		blk := buf[:min(len(buf), len(s.lines)-done)]
		g.FillBlock(blk)
		for i, addr := range blk {
			line := (addr - base) / memtrace.LineBytes
			if line > math.MaxUint32 {
				return nil, fmt.Errorf("measure: %s: reference %d at line %d overflows a 32-bit line index",
					pat.Name, done+i, line)
			}
			s.lines[done+i] = uint32(line)
		}
		done += len(blk)
	}
	s.tail = g
	return s, nil
}

// measuredStream precomputes the measured program's stream for one run:
// exactly the references a budget's worth of compute performs.
func measuredStream(measured memtrace.Pattern, budget simtime.Duration, seed uint64) (*Stream, error) {
	return newStream(measured, 0, seed, budget)
}

// interveningStream precomputes the intervening program's stream for one
// run. The amount consumed depends on cache behaviour, so the length is a
// heuristic (one budget's worth of its references); consumption beyond it
// falls back to the stream's tail generator.
func interveningStream(intervening memtrace.Pattern, budget simtime.Duration, seed uint64) (*Stream, error) {
	return newStream(intervening, interveningBase, seed^0x5bd1e995, budget)
}

// cursor is one run's private read position over a shared Stream.
type cursor struct {
	s    *Stream
	pos  int
	tail *memtrace.Generator // lazy clone of s.tail once pos passes the prefix
}

// Run performs one single-processor run of the measured pattern under the
// given regime. For Multiprog, intervening supplies the program run between
// successive dispatches of the measured one; it is ignored otherwise.
func Run(mc machine.Config, measured memtrace.Pattern, intervening memtrace.Pattern, regime Regime, opts Options) (RunResult, error) {
	if err := mc.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return RunResult{}, err
	}
	ms, err := measuredStream(measured, opts.Budget, opts.Seed)
	if err != nil {
		return RunResult{}, err
	}
	var istream *Stream
	if regime == Multiprog {
		if istream, err = interveningStream(intervening, opts.Budget, opts.Seed); err != nil {
			return RunResult{}, err
		}
	}
	return runStreams(mc, ms, istream, regime, opts)
}

// runStreams is Run over precomputed streams (see MeasurePenalties and
// StreamSet, which share streams across runs).
func runStreams(mc machine.Config, measured *Stream, intervening *Stream, regime Regime, opts Options) (RunResult, error) {
	if err := mc.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return RunResult{}, err
	}
	c, err := cache.New(mc.Cache)
	if err != nil {
		return RunResult{}, err
	}

	var inter cursor
	if regime == Multiprog {
		inter = cursor{s: intervening}
	}

	var (
		own        simtime.Duration // measured program's accumulated time
		nextSwitch = simtime.Duration(opts.Q)
		switches   int
		misses     uint64
	)
	step := mc.Compute(measured.gap)
	base := measured.base
	for _, line := range measured.lines {
		own += step
		if !c.Access(ownerMeasured, base+uint64(line)*memtrace.LineBytes) {
			misses++
			own += mc.LineFill
		}
		if own >= nextSwitch {
			switches++
			own += mc.SwitchPath
			switch regime {
			case Stationary:
				// Immediately replaced: no cache disturbance.
			case Migrating:
				c.Flush()
			case Multiprog:
				runIntervening(mc, c, &inter, opts.Q)
			}
			nextSwitch = own + opts.Q
		}
	}
	return RunResult{
		Regime:       regime,
		ResponseTime: own,
		Switches:     switches,
		Misses:       misses,
		Accesses:     uint64(len(measured.lines)),
	}, nil
}

// interBlock is the address-batch size for the intervening stream's
// beyond-the-prefix tail path.
const interBlock = 256

// runIntervening executes the intervening program on the same cache for q
// of its own time. Its time does not count against the measured program.
func runIntervening(mc machine.Config, c *cache.Cache, cur *cursor, q simtime.Duration) {
	step := mc.Compute(cur.s.gap)
	var t simtime.Duration
	base, lines := cur.s.base, cur.s.lines
	i := cur.pos
	for t < q && i < len(lines) {
		t += step
		if !c.Access(ownerIntervening, base+uint64(lines[i])*memtrace.LineBytes) {
			t += mc.LineFill
		}
		i++
	}
	cur.pos = i
	if t >= q {
		return
	}
	// Prefix exhausted mid-quantum: continue on the tail generator. How
	// many more references fit depends on the misses along the way, so
	// blocks are fetched against an every-reference-hits upper bound; when
	// the quantum ends mid-block the generator rewinds to the block start
	// and re-consumes exactly the references used, landing bitwise where
	// per-call generation would.
	if cur.tail == nil {
		cur.tail = cur.s.tail.Clone()
	}
	gen := cur.tail
	var buf [interBlock]uint64
	var mark memtrace.Mark
	for t < q {
		n := len(buf)
		if step > 0 {
			if need := int((q - t + step - 1) / step); need < n {
				n = need
			}
		}
		gen.Save(&mark)
		blk := buf[:n]
		gen.FillBlock(blk)
		used := 0
		for _, addr := range blk {
			t += step
			if !c.Access(ownerIntervening, addr) {
				t += mc.LineFill
			}
			used++
			if t >= q {
				break
			}
		}
		if used < n {
			gen.Restore(&mark)
			gen.FillBlock(blk[:used])
		}
	}
}

// Penalties holds the derived per-switch cache penalties for one measured
// application.
type Penalties struct {
	Measured string
	Q        simtime.Duration
	// PNA is the no-affinity penalty per switch.
	PNA simtime.Duration
	// PA maps intervening application name to the affinity penalty per
	// switch when that application runs in between.
	PA map[string]simtime.Duration
	// Stationary, Migrating and MultiprogRT retain the underlying runs for
	// reporting.
	Stationary RunResult
	Migrating  RunResult
	Multi      map[string]RunResult
}

// MeasurePenalties runs the full Section-4 protocol for one measured
// application against a set of intervening applications at one Q, and
// derives P^NA and P^A.
func MeasurePenalties(mc machine.Config, measured memtrace.Pattern, intervening []memtrace.Pattern, opts Options) (Penalties, error) {
	if err := mc.Validate(); err != nil {
		return Penalties{}, err
	}
	if err := opts.Validate(); err != nil {
		return Penalties{}, err
	}
	ms, err := measuredStream(measured, opts.Budget, opts.Seed)
	if err != nil {
		return Penalties{}, err
	}
	return measurePenalties(mc, measured.Name, ms, intervening, func(i int) (*Stream, error) {
		return interveningStream(intervening[i], opts.Budget, opts.Seed)
	}, opts)
}

// measurePenalties is MeasurePenalties over a precomputed measured stream,
// replayed by all len(intervening)+2 runs rather than regenerated per run.
// ivStream supplies intervening[i]'s stream just before the run against
// it, so a stream still being built does not hold up the runs before.
func measurePenalties(mc machine.Config, name string, measured *Stream, intervening []memtrace.Pattern, ivStream func(i int) (*Stream, error), opts Options) (Penalties, error) {
	stat, err := runStreams(mc, measured, nil, Stationary, opts)
	if err != nil {
		return Penalties{}, err
	}
	mig, err := runStreams(mc, measured, nil, Migrating, opts)
	if err != nil {
		return Penalties{}, err
	}
	p := Penalties{
		Measured:   name,
		Q:          opts.Q,
		PNA:        perSwitch(mig.ResponseTime-stat.ResponseTime, mig.Switches),
		PA:         make(map[string]simtime.Duration, len(intervening)),
		Stationary: stat,
		Migrating:  mig,
		Multi:      make(map[string]RunResult, len(intervening)),
	}
	for i, iv := range intervening {
		is, err := ivStream(i)
		if err != nil {
			return Penalties{}, err
		}
		multi, err := runStreams(mc, measured, is, Multiprog, opts)
		if err != nil {
			return Penalties{}, err
		}
		p.Multi[iv.Name] = multi
		p.PA[iv.Name] = perSwitch(multi.ResponseTime-stat.ResponseTime, multi.Switches)
	}
	return p, nil
}

func perSwitch(delta simtime.Duration, switches int) simtime.Duration {
	if switches <= 0 {
		return 0
	}
	d := delta / simtime.Duration(switches)
	if d < 0 {
		// Sampling noise can push a tiny negative; clamp, a penalty is
		// non-negative by definition.
		return 0
	}
	return d
}

// StreamSet is the lazily built set of reference streams one Table-1 grid
// replays: a measured and an intervening stream per pattern. The streams
// depend only on (pattern, budget, seed) — Q and the regime never enter
// stream construction — so every cell of the grid replays the same ones.
// The cells that share a set build each stream at most once, on first use,
// and a cell that never runs builds nothing. A set keeps its streams for
// its own lifetime only: whoever holds it (a campaign's cell plan, one
// BuildTable1Ctx call) decides how long that is. Safe for concurrent use.
type StreamSet struct {
	patterns    []memtrace.Pattern
	budget      simtime.Duration
	seed        uint64
	measured    []lazyStream
	intervening []lazyStream
	built       atomic.Int32 // streams constructed so far
}

// lazyStream is one stream of a StreamSet, built on first use.
type lazyStream struct {
	once sync.Once
	s    *Stream
	err  error
}

// NewStreamSet returns an empty set for the given patterns (the grid's
// measured and intervening applications), per-run compute budget and seed.
func NewStreamSet(patterns []memtrace.Pattern, budget simtime.Duration, seed uint64) *StreamSet {
	return &StreamSet{
		patterns:    patterns,
		budget:      budget,
		seed:        seed,
		measured:    make([]lazyStream, len(patterns)),
		intervening: make([]lazyStream, len(patterns)),
	}
}

// stream returns the slot's stream, building it on the first call.
func (ss *StreamSet) stream(l *lazyStream, build func(memtrace.Pattern, simtime.Duration, uint64) (*Stream, error), pat memtrace.Pattern) (*Stream, error) {
	l.once.Do(func() {
		l.s, l.err = build(pat, ss.budget, ss.seed)
		ss.built.Add(1)
	})
	return l.s, l.err
}

// MeasureCell runs the Section-4 protocol for the (q, patterns[measured])
// cell of Table 1, against every pattern of the set as the intervening
// application. Its result depends only on the cell's coordinates and the
// set's (patterns, budget, seed), never on which cells ran before on the
// same set: a cell run against a fresh set equals the same cell of a
// shared-set grid bitwise. The cell caches of the sharded campaign path
// rely on this identity.
func (ss *StreamSet) MeasureCell(mc machine.Config, measured int, q simtime.Duration) (Penalties, error) {
	if measured < 0 || measured >= len(ss.patterns) {
		return Penalties{}, fmt.Errorf("measure: measured index %d out of range [0,%d)", measured, len(ss.patterns))
	}
	if err := mc.Validate(); err != nil {
		return Penalties{}, err
	}
	opts := Options{Q: q, Budget: ss.budget, Seed: ss.seed}
	if err := opts.Validate(); err != nil {
		return Penalties{}, err
	}
	ms, err := ss.stream(&ss.measured[measured], measuredStream, ss.patterns[measured])
	if err != nil {
		return Penalties{}, err
	}
	return measurePenalties(mc, ss.patterns[measured].Name, ms, ss.patterns, func(i int) (*Stream, error) {
		return ss.stream(&ss.intervening[i], interveningStream, ss.patterns[i])
	}, opts)
}

// Table1 reproduces the paper's Table 1: for every measured application,
// every intervening application, and every Q, the penalties P^NA and P^A.
type Table1 struct {
	Qs   []simtime.Duration
	Apps []string
	// Cells[q][measured] holds the penalties for that combination.
	Cells map[simtime.Duration]map[string]Penalties
}

// DefaultQs returns the paper's three rescheduling intervals: 25, 100 and
// 400 ms.
func DefaultQs() []simtime.Duration {
	return []simtime.Duration{
		25 * simtime.Millisecond,
		100 * simtime.Millisecond,
		400 * simtime.Millisecond,
	}
}

// BuildTable1 runs the complete protocol over all application pairs and Qs.
// budget is the per-run compute budget; seed fixes the random streams.
func BuildTable1(mc machine.Config, patterns []memtrace.Pattern, qs []simtime.Duration, budget simtime.Duration, seed uint64) (Table1, error) {
	return BuildTable1Ctx(context.Background(), mc, patterns, qs, budget, seed, 0)
}

// BuildTable1Ctx is BuildTable1 with cancellation and a worker bound,
// fanning the (Q, measured application) cells out over workers goroutines
// (zero means runtime.GOMAXPROCS(0), one is sequential). The cells share
// one StreamSet and are otherwise independent sets of single-processor
// runs with their own caches, so the table is identical for every worker
// count.
func BuildTable1Ctx(ctx context.Context, mc machine.Config, patterns []memtrace.Pattern, qs []simtime.Duration, budget simtime.Duration, seed uint64, workers int) (Table1, error) {
	t := Table1{
		Qs:    qs,
		Cells: make(map[simtime.Duration]map[string]Penalties),
	}
	for _, p := range patterns {
		t.Apps = append(t.Apps, p.Name)
	}
	set := NewStreamSet(patterns, budget, seed)
	// One slot per (q, measured) cell; idx = qi*len(patterns) + pi.
	cells := make([]Penalties, len(qs)*len(patterns))
	err := parallel.ForEach(ctx, workers, len(cells), func(ctx context.Context, idx int) error {
		var err error
		cells[idx], err = set.MeasureCell(mc, idx%len(patterns), qs[idx/len(patterns)])
		return err
	})
	if err != nil {
		return Table1{}, err
	}
	for qi, q := range qs {
		t.Cells[q] = make(map[string]Penalties)
		for pi, p := range patterns {
			t.Cells[q][p.Name] = cells[qi*len(patterns)+pi]
		}
	}
	return t, nil
}
