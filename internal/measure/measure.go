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
//
// The runs replay precomputed reference streams (Stream), each on a
// private LRU replay cache (lruCache) that keeps only each set's lines in
// recency order, 4 bytes a line: the protocol needs only hits, misses and
// flushes. Its hits and misses equal those of the exact simulator
// cache.Cache, which the tests hold it to; cache.Cache's owner accounting
// and undo journal serve the scheduler's exact cache model
// (internal/cachemodel). The runs of one Table-1 cell replay the same
// measured stream, so they advance together, as the lanes of one lockstep
// pass over it (replay); the Stationary run needs no replay of its own
// (stationary).
package measure

import (
	"context"
	"fmt"
	"math"
	"sort"
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

// Stream is a precomputed prefix of one program's reference stream, plus a
// generator parked at the prefix end for the (rare) references beyond it.
//
// The prefix is run-length encoded in 2-byte words, one per run of
// identical consecutive references: a word holds the run's line as a
// signed 13-bit difference from the previous run's line, and its count,
// 1..maxRun, in the low runBits (see openRun.encode and nextRun for the
// exact layout). A reference's byte address is base +
// line*memtrace.LineBytes, where line is its line index relative to the
// stream's address base: generators emit one line-aligned address per
// touch, so the index loses nothing. A longer run continues in the next
// word, on the same line. A difference that does not fit, as when a
// GRAVITY phase relocates its regions, is carried by an escape: two words
// with the absolute line, then the run's own word. Every reference a
// pattern does not send to one of its regions re-touches the previous
// line, so runs are 45-62% as many as references for the built-in
// patterns; splitting adds 0.1-1.5% words and escapes a handful, so a
// stream takes about 2 bytes a run, under 1.3 a reference.
//
// Only a run's first reference can miss: the rest touch the line it just
// touched, on the same cache, so they are hits that leave the cache's LRU
// order as it was. Replay therefore sends one reference per word through
// the replay cache (lruCache), locating the run's set and key once, and
// charges the rest their compute time in one step, except where a switch
// point splits the run: the reference after a switch goes through the
// cache again, since the switch may have evicted the line. A split run's
// next word sends its line through the cache once more: without a switch
// between, that is a hit on the most recent line, which changes nothing.
//
// The reference streams of this experiment are fixed by (pattern, address
// base, seed) alone: think time is one gap per reference, and nothing the
// cache or the scheduler does feeds back into address generation. Every run
// of a Table 1 cell therefore reads the same measured stream, and every
// multiprogrammed run against the same intervening application consumes a
// prefix of the same intervening stream. Precomputing each stream once and
// sharing it read-only across runs (and across the cells of a StreamSet)
// removes the dominant generator cost from the hot loop while staying
// bitwise identical to per-reference generation. A cell's Migrating and
// Multiprog runs read the measured stream together, in one pass that
// decodes each word once for all of them (see replay); each run reads its
// intervening stream through a private cursor.
//
// A measured stream also keeps, per cache geometry, the ascending indices
// of the references that miss when it replays alone (missList): the
// misses of every Stationary run, at any Q, from which those runs are
// derived without a replay. The lists are built on first use, under the
// stream's lock, and hold a few thousand to tens of thousands of 4-byte
// indices each for the built-in patterns.
type Stream struct {
	base uint64
	runs []uint16 // run words; see nextRun
	refs int      // references in the prefix: the sum of the run counts
	gap  simtime.Duration
	tail *memtrace.Generator // positioned after the prefix; cloned, never mutated

	mu     sync.Mutex
	misses map[cache.Config][]int32 // miss lists by cache geometry; see missList
}

// Run-word layout: the low runBits hold a run's count, the high 16-runBits
// its line's signed difference from the previous run's line (the first
// run's previous line is 0), in [minDelta, maxDelta]. A word with count 0
// is an escape: its high bits are the line's bits from 16 up, the next
// word its low 16 bits, and the word after that is the run's own, with a
// difference of 0. A line index is at most maxLine.
const (
	runBits  = 3
	maxRun   = 1<<runBits - 1
	maxDelta = 1<<(15-runBits) - 1
	minDelta = -1 << (15 - runBits)
	lineBits = 24
	maxLine  = 1<<lineBits - 1
)

// run decodes one run word: its line's difference from the previous run's
// line, and its count, 0 for an escape.
func run(w uint16) (delta int64, count int) {
	return int64(int16(w) >> runBits), int(w & maxRun)
}

// nextRun decodes the run whose first word is runs[i], the previous run
// being on line prev: it returns the run's line and count and the index of
// the next run's first word.
func nextRun(runs []uint16, i int, prev uint64) (line uint64, count, next int) {
	w := runs[i]
	if w&maxRun == 0 {
		prev = uint64(w>>runBits)<<16 | uint64(runs[i+1])
		i += 2
		w = runs[i]
	}
	d, k := run(w)
	return prev + uint64(d), k, i + 1
}

// streamBlock is the address-batch size of stream construction.
const streamBlock = 4096

// newStream precomputes a budget's worth of compute of the pattern's
// stream: exactly the references that much execution performs. It fails,
// rather than wrapping, if a line index exceeds maxLine. A Stream is
// immutable after construction and safe for concurrent use.
func newStream(pat memtrace.Pattern, base, seed uint64, budget simtime.Duration) (*Stream, error) {
	g := memtrace.NewGenerator(pat, base, seed)
	n := g.RefsFor(budget)
	runs := make([]uint16, runsEstimate(pat, n))
	var buf [streamBlock]uint64
	// The first run's previous line is 0, and a full count makes the
	// first reference open a run.
	r := openRun{w: -1, count: maxRun}
	for done := 0; done < n; {
		blk := buf[:min(len(buf), n-done)]
		g.FillBlock(blk)
		for i := 0; i < len(blk); {
			var k int
			k, r = r.encode(runs, blk[i:], base)
			if i += k; i == len(blk) {
				break
			}
			if l := (blk[i] - base) / memtrace.LineBytes; l > maxLine {
				return nil, fmt.Errorf("measure: %s: reference %d at line %d overflows a %d-bit line index",
					pat.Name, done+i, l, lineBits)
			}
			runs = append(runs, make([]uint16, len(runs)/4+3)...)
		}
		done += len(blk)
	}
	runs = runs[:r.w+1]
	return &Stream{base: base, runs: runs, refs: n, gap: g.Gap(), tail: g}, nil
}

// openRun is the run newStream's encoder has open: count references to
// line, in the word runs[w], whose line is delta from the previous run's.
type openRun struct {
	w            int
	line         uint64
	delta, count int64
}

// encode is newStream's leaf: it appends the byte addresses of blk, in an
// address space starting at base, to the run words in runs, the open run
// being r. The open run's word is rewritten in place for every
// reference, and a new one opened only where a reference opens a run,
// with no branch on whether it does: a reference repeats the open run's
// line at random, so such a branch is mispredicted often. encode returns
// how many addresses it encoded and the run then open; it stops early at
// an address past maxLine, or when runs may lack room for the next one's
// words.
func (r openRun) encode(runs []uint16, blk []uint64, base uint64) (int, openRun) {
	for i, addr := range blk {
		l := (addr - base) / memtrace.LineBytes
		if l > maxLine || r.w+3 >= len(runs) {
			return i, r
		}
		open := int64(b2i(l != r.line) | b2i(r.count == maxRun))
		d := int64(l - r.line) // 0 unless the reference opens a run
		r.w += int(open)
		r.count = r.count&(open-1) + 1
		r.delta = r.delta&(open-1) | d&-open
		r.line = l
		if d < minDelta || d > maxDelta {
			runs[r.w], runs[r.w+1] = uint16(l>>16)<<runBits, uint16(l)
			r.w += 2
			r.delta = 0
		}
		runs[r.w] = uint16(r.delta)<<runBits | uint16(r.count)
	}
	return len(blk), r
}

// b2i is 1 for true and 0 for false, computed without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runsEstimate sizes a stream's word slice: n references, of which a
// pattern sends a RegionShare p to its regions, each opening a new run
// (the rest re-touch the previous line and extend the open one). Runs are
// then geometric in length, and a run takes one word per maxRun
// references, 1/(1-(1-p)^maxRun) words on average. Eight standard
// deviations of headroom, and 64 words for the escapes, keep the count
// inside the estimate, so the slice is allocated once and nearly full; a
// stream with more words than the estimate only costs a regrowth. Growing
// the slice by append instead allocates about six times the final slice
// over a stream's build.
func runsEstimate(pat memtrace.Pattern, n int) int {
	p := min(pat.RegionShare(), 1)
	perRef := 1.0 / maxRun
	if p > 0 {
		perRef = p / (1 - math.Pow(1-p, maxRun))
	}
	mean := float64(n) * perRef
	return min(n, int(mean+8*math.Sqrt(mean))+64)
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

// cursor is one run's private read position over a shared Stream: the
// next run's first word is runs[next], and left references remain of the
// current run, on line line.
type cursor struct {
	s    *Stream
	next int
	line uint64
	left int
	tail *memtrace.Generator // lazy clone of s.tail once the prefix is consumed
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
	if err := measured.Validate(); err != nil {
		return RunResult{}, fmt.Errorf("measure: measured application: %w", err)
	}
	if regime == Multiprog {
		if err := intervening.Validate(); err != nil {
			return RunResult{}, fmt.Errorf("measure: intervening application: %w", err)
		}
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

// hitsUntil returns how many of k further hits, each adding step to a
// clock at t < limit, run until the clock reaches limit: k when it never
// does, else up to and including the hit that reaches it. The comparison
// comes first because the division is the slow path: most runs end well
// before a switch point.
func hitsUntil(t, step, limit simtime.Duration, k int) int {
	if t+simtime.Duration(k)*step < limit {
		return k
	}
	// step > 0 here, since t < limit.
	return int((limit - t + step - 1) / step)
}

// runStreams is Run over precomputed streams (see MeasurePenalties and
// StreamSet, which share streams across runs). A Migrating or Multiprog
// run is a one-lane replay (see replay). A Stationary run never disturbs
// the cache, so which of its references miss does not depend on Q: it is
// derived from the stream's miss list for the cache's geometry (see
// missList and stationary), which equals a replay's result.
func runStreams(mc machine.Config, measured *Stream, intervening *Stream, regime Regime, opts Options) (RunResult, error) {
	if err := mc.Validate(); err != nil {
		return RunResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return RunResult{}, err
	}
	step := mc.Compute(measured.gap)
	if regime == Stationary && step > 0 && measured.refs <= math.MaxInt32 {
		misses, err := measured.missList(mc)
		if err != nil {
			return RunResult{}, err
		}
		return stationary(mc, misses, measured.refs, step, opts.Q), nil
	}
	lanes := []lane{{regime: regime}}
	if regime == Multiprog {
		lanes[0].inter = cursor{s: intervening}
	}
	if err := replay(mc, measured, opts.Q, lanes); err != nil {
		return RunResult{}, err
	}
	return lanes[0].result(measured), nil
}

// lane is one run of a lockstep replay (see replay): its regime, its own
// replay cache, and its progress through the measured stream.
type lane struct {
	regime Regime
	inter  cursor // a Multiprog run's read position in the intervening stream
	// record makes the lane the miss list's (see missList): it replays
	// the stream with no switch point, whatever q, only to collect in
	// misses the index of every measured reference that misses; its own
	// time, switches and miss count stay 0.
	record bool
	misses []int32
	// err is the failure that stopped the lane. A lane given one stays
	// out of the replay: a cell's intervening stream that failed to build
	// fails its run in the run's place.
	err error

	c          *lruCache
	own        simtime.Duration // the measured program's accumulated time
	nextSwitch simtime.Duration
	switches   int
	nmiss      uint64
}

// result reports the lane's run of the measured stream.
func (l *lane) result(measured *Stream) RunResult {
	return RunResult{
		Regime:       l.regime,
		ResponseTime: l.own,
		Switches:     l.switches,
		Misses:       l.nmiss,
		Accesses:     uint64(measured.refs),
	}
}

// word is one decoded run word of the measured stream: the first way of
// its line's set, the line's key, and the run's count.
type word struct {
	set int
	key uint32
	k   int32
}

// wordBlock is how many run words replay decodes at a time: 4 KiB of
// words, which stay in the first-level cache while each lane reads them.
const wordBlock = 256

// replay runs the measured stream once for every lane, in lockstep: one
// pass decodes each run word and locates its set and key once, then
// charges the word to each lane in turn, on the lane's own replay cache
// and own time, switching every q of that time. The lanes share nothing
// but the decoded words, so each ends as a replay of its run alone would.
// A lane that fails drops out, and replay returns the error of the lowest
// failed lane: the error that replaying the runs one after another, in
// lane order, would return.
//
// A run word is charged whole: its first reference goes through the
// cache, and the run's own time after its k references is t = own +
// k*step, plus a line fill on a miss. Own time only grows within a run,
// so when t falls short of the next switch point no switch splits the
// run, and t is committed at once, in a leaf loop that keeps the lane's
// clock and cache in registers (chargeWords). Otherwise the run falls to
// the reference-by-reference switch logic (lane.split).
func replay(mc machine.Config, measured *Stream, q simtime.Duration, lanes []lane) error {
	var geom lruGeom
	for i := range lanes {
		l := &lanes[i]
		if l.err != nil {
			continue
		}
		c, err := newLRUCache(mc.Cache)
		if err != nil {
			return err
		}
		l.c, l.nextSwitch, geom = c, q, c.lruGeom
	}
	step := mc.Compute(measured.gap)
	base, runs := measured.base, measured.runs
	var (
		blk  [wordBlock]word
		line uint64
		ref  int // index of the block's first reference
	)
	for i := 0; i < len(runs); {
		n, refs := 0, 0
		for ; n < len(blk) && i < len(runs); n++ {
			var k int
			line, k, i = nextRun(runs, i, line)
			set, key := geom.locate(base, line*memtrace.LineBytes, ownerMeasured)
			blk[n] = word{set: set, key: key, k: int32(k)}
			refs += k
		}
		for j := range lanes {
			if l := &lanes[j]; l.err == nil {
				l.advance(mc, blk[:n], ref, step, q)
			}
		}
		ref += refs
	}
	for i := range lanes {
		if err := lanes[i].err; err != nil {
			return err
		}
	}
	return nil
}

// advance charges a block of decoded words to the lane; ref is the index
// of the block's first reference.
func (l *lane) advance(mc machine.Config, blk []word, ref int, step, q simtime.Duration) {
	keys, ways, fill := l.c.keys, l.c.ways, mc.LineFill
	if l.record {
		for _, w := range blk {
			if !touch(keys[w.set:w.set+ways], w.key) {
				l.misses = append(l.misses, int32(ref))
			}
			ref += int(w.k)
		}
		return
	}
	for j := 0; j < len(blk); j++ {
		var (
			n     int
			own   simtime.Duration
			nmiss uint64
			miss  simtime.Duration
		)
		n, own, nmiss, miss = chargeWords(keys, ways, blk[j:], l.own, l.nextSwitch, step, fill)
		l.own, l.nmiss = own, l.nmiss+nmiss
		if j += n; j == len(blk) {
			return
		}
		if l.err = l.split(mc, blk[j], miss, step, q); l.err != nil {
			return
		}
	}
}

// chargeWords is the lane kernel's leaf: it charges the words of blk, in
// order, to a lane whose cache has the given keys and ways, whose own time
// is own and whose next switch point is limit, as long as each word ends
// short of limit. It returns how many words it charged, the own time and
// misses after them and, when a word reaches limit (j < len(blk)), miss 1
// if that word's first reference, which has gone through the cache,
// missed.
func chargeWords(keys []uint32, ways int, blk []word, own, limit, step, fill simtime.Duration) (j int, t simtime.Duration, nmiss uint64, miss simtime.Duration) {
	for j = range blk {
		w := &blk[j]
		miss = 0 // charged without a branch on the hit, which no predictor learns
		if !touch(keys[w.set:w.set+ways], w.key) {
			miss = 1
		}
		t = own + simtime.Duration(w.k)*step + miss*fill
		if t >= limit {
			return j, own, nmiss, miss
		}
		own = t
		nmiss += uint64(miss)
	}
	return len(blk), own, nmiss, 0
}

// split charges word w, which reaches the lane's next switch point,
// reference by reference around the switch points within it. Its first
// reference has gone through the cache, missing if miss is 1. The rest of
// the run are hits up to a switch; the reference after a switch
// goes through the cache again, since the switch may have evicted the
// line. A switch flushes a Migrating lane's cache and runs a Multiprog
// lane's intervening program for q.
func (l *lane) split(mc machine.Config, w word, miss, step, q simtime.Duration) error {
	keys := l.c.keys[w.set : w.set+l.c.ways]
	own := l.own + step + miss*mc.LineFill
	l.nmiss += uint64(miss)
	k := int(w.k) - 1
	for {
		if own < l.nextSwitch {
			h := hitsUntil(own, step, l.nextSwitch, k)
			own += simtime.Duration(h) * step
			k -= h
			if own < l.nextSwitch {
				break
			}
		}
		l.switches++
		own += mc.SwitchPath
		switch l.regime {
		case Stationary:
			// Immediately replaced: no cache disturbance.
		case Migrating:
			l.c.flush()
		case Multiprog:
			if err := runIntervening(mc, l.c, &l.inter, q); err != nil {
				return err
			}
		}
		l.nextSwitch = own + q
		if k == 0 {
			break
		}
		own += step
		if !touch(keys, w.key) {
			own += mc.LineFill
			l.nmiss++
		}
		k--
	}
	l.own = own
	return nil
}

// missList returns the ascending indices of the references of s that miss
// when s is replayed alone, from an empty cache of mc's geometry and with
// nothing run in between: the misses of every Stationary run of s on that
// geometry, whatever its Q. The first call for a geometry replays the
// stream once, as one lane that records its misses and never switches;
// later calls, from any goroutine, share the result.
func (s *Stream) missList(mc machine.Config) ([]int32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.misses[mc.Cache]; ok {
		return m, nil
	}
	lanes := []lane{{regime: Stationary, record: true}}
	if err := replay(mc, s, simtime.Duration(simtime.Never), lanes); err != nil {
		return nil, err
	}
	if s.misses == nil {
		s.misses = make(map[cache.Config][]int32)
	}
	s.misses[mc.Cache] = lanes[0].misses
	return lanes[0].misses, nil
}

// stationary derives a Stationary run of refs references at quantum q
// from the run's ascending miss indices. Nothing disturbs the cache, so
// after reference r the measured program's own time is
//
//	(r+1)*step + LineFill*(misses at or before r) + switches*SwitchPath,
//
// which grows with r. Each switch falls on the first reference whose own
// time reaches the switch point. A binary search finds the first miss
// whose own time does, miss js; the references between misses js-1 and
// js have js misses at or before them, so one division finds the first
// of them that does, and the switch falls there or, if none does, on
// miss js. The per-reference compute time step must be positive.
func stationary(mc machine.Config, misses []int32, refs int, step, q simtime.Duration) RunResult {
	fill := mc.LineFill
	var (
		switches   int
		paths      simtime.Duration // switches * SwitchPath
		nextSwitch = q
		j          int // the misses up to the last switch
	)
	for {
		// The first miss from j on whose own time reaches the switch point.
		js := j + sort.Search(len(misses)-j, func(i int) bool {
			return (simtime.Duration(misses[j+i])+1)*step+simtime.Duration(j+i+1)*fill+paths >= nextSwitch
		})
		// Between misses js-1 and js, own time after reference r is
		// (r+1)*step + js*fill + paths.
		need := nextSwitch - paths - simtime.Duration(js)*fill
		r := int((need+step-1)/step) - 1
		if js < len(misses) && r >= int(misses[js]) {
			r = int(misses[js])
			js++
		}
		if r >= refs {
			break
		}
		switches++
		own := simtime.Duration(r+1)*step + simtime.Duration(js)*fill + paths
		paths += mc.SwitchPath
		nextSwitch = own + mc.SwitchPath + q
		j = js
	}
	return RunResult{
		Regime:       Stationary,
		ResponseTime: simtime.Duration(refs)*step + simtime.Duration(len(misses))*fill + paths,
		Switches:     switches,
		Misses:       uint64(len(misses)),
		Accesses:     uint64(refs),
	}
}

// interBlock is the address-batch size for the intervening stream's
// beyond-the-prefix tail path.
const interBlock = 256

// runIntervening executes the intervening program on the same cache for q
// of its own time. Its time does not count against the measured program.
// It fails if a reference of the tail generator lies too far into the
// program's address space for a replay-cache key. Like replay, it charges
// a run whole, in a leaf loop (interRuns), when the quantum does not end
// within it.
func runIntervening(mc machine.Config, c *lruCache, cur *cursor, q simtime.Duration) error {
	keys, geom := c.keys, c.lruGeom
	step, fill := mc.Compute(cur.s.gap), mc.LineFill
	var t simtime.Duration
	base, runs := cur.s.base, cur.s.runs
	line, left, next := cur.line, cur.left, cur.next
	for t < q && (left > 0 || next < len(runs)) {
		var miss simtime.Duration // as in replay, no branch on the hit
		if left == 0 {
			next, line, left, t, miss = interRuns(keys, geom, base, runs, next, line, t, q, step, fill)
			if left == 0 {
				break // the prefix is exhausted
			}
		} else {
			// The rest of a run the last quantum split goes through the
			// cache again, since the measured program may have evicted
			// the line.
			set, key := geom.locate(base, line*memtrace.LineBytes, ownerIntervening)
			if !touch(keys[set:set+geom.ways], key) {
				miss = 1
			}
			if end := t + simtime.Duration(left)*step + miss*fill; end < q {
				t, left = end, 0
				continue
			}
		}
		// The quantum ends within the run: its first reference has gone
		// through the cache, and the rest hit until then.
		t += step + miss*fill
		used := 1
		if t < q {
			h := hitsUntil(t, step, q, left-1)
			t += simtime.Duration(h) * step
			used += h
		}
		left -= used
	}
	cur.line, cur.left, cur.next = line, left, next
	if t >= q {
		return nil
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
			off := addr - base
			if off>>c.lineShift > maxKeyLine {
				return fmt.Errorf("measure: intervening reference at %#x lies past line %d of its address space, the replay cache's key bound",
					addr, uint64(maxKeyLine))
			}
			t += step
			if !c.access(c.locate(base, off, ownerIntervening)) {
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
	return nil
}

// interRuns is runIntervening's leaf. From word i of runs, the previous
// run being on line line, it charges whole runs to the intervening
// program's clock t as long as each ends short of the quantum q. At the
// first run that does not, it returns the index of the word after that
// run, its line and count, t before it, and miss 1 if the run's first
// reference, which has gone through the cache, missed. When the words run
// out first, it returns count 0.
func interRuns(keys []uint32, geom lruGeom, base uint64, runs []uint16, i int, line uint64, t, q, step, fill simtime.Duration) (next int, l uint64, k int, before, miss simtime.Duration) {
	for i < len(runs) {
		line, k, i = nextRun(runs, i, line)
		set, key := geom.locate(base, line*memtrace.LineBytes, ownerIntervening)
		miss = 0
		if !touch(keys[set:set+geom.ways], key) {
			miss = 1
		}
		end := t + simtime.Duration(k)*step + miss*fill
		if end >= q {
			return i, line, k, t, miss
		}
		t = end
	}
	return i, line, 0, t, 0
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
	if err := measured.Validate(); err != nil {
		return Penalties{}, fmt.Errorf("measure: measured application: %w", err)
	}
	for i, iv := range intervening {
		if err := iv.Validate(); err != nil {
			return Penalties{}, fmt.Errorf("measure: intervening application %d: %w", i, err)
		}
	}
	ms, err := measuredStream(measured, opts.Budget, opts.Seed)
	if err != nil {
		return Penalties{}, err
	}
	lanes := cellLanes(len(intervening))
	for i, iv := range intervening {
		is, err := interveningStream(iv, opts.Budget, opts.Seed)
		lanes[1+i].inter, lanes[1+i].err = cursor{s: is}, err
	}
	return measurePenalties(mc, measured.Name, ms, intervening, lanes, opts)
}

// cellLanes returns the lanes of one cell's replay: the Migrating run,
// then a Multiprog run per intervening application, whose stream the
// caller sets in the lane's cursor.
func cellLanes(intervening int) []lane {
	lanes := make([]lane, 1+intervening)
	lanes[0].regime = Migrating
	for i := range intervening {
		lanes[1+i].regime = Multiprog
	}
	return lanes
}

// measurePenalties is MeasurePenalties over a precomputed measured stream:
// the Stationary run derived from its miss list, and the cell's other
// runs (see cellLanes) replayed in one lockstep pass over it.
func measurePenalties(mc machine.Config, name string, measured *Stream, intervening []memtrace.Pattern, lanes []lane, opts Options) (Penalties, error) {
	stat, err := runStreams(mc, measured, nil, Stationary, opts)
	if err != nil {
		return Penalties{}, err
	}
	if err := replay(mc, measured, opts.Q, lanes); err != nil {
		return Penalties{}, err
	}
	mig := lanes[0].result(measured)
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
		multi := lanes[1+i].result(measured)
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
// and a cell that never runs, or is rejected, builds nothing. A cell takes
// all the streams it reads before its lockstep replay starts, its own
// measured application's intervening stream first (see MeasureCell). A set keeps its streams for
// its own lifetime only: whoever holds it (a campaign's cell plan, one
// BuildTable1 call) decides how long that is. Safe for concurrent use.
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
// application. It fails, building no stream, if a pattern of the set is
// invalid. Its result depends only on the cell's coordinates and the
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
	for i, p := range ss.patterns {
		if err := p.Validate(); err != nil {
			return Penalties{}, fmt.Errorf("measure: pattern %d: %w", i, err)
		}
	}
	ms, err := ss.stream(&ss.measured[measured], measuredStream, ss.patterns[measured])
	if err != nil {
		return Penalties{}, err
	}
	// The lockstep replay needs every intervening stream before its first
	// word. Taking them from the cell's own pattern on, concurrent cells
	// of different measured applications build different streams first,
	// rather than wait on one.
	lanes := cellLanes(len(ss.patterns))
	for j := range ss.patterns {
		i := (measured + j) % len(ss.patterns)
		is, err := ss.stream(&ss.intervening[i], interveningStream, ss.patterns[i])
		lanes[1+i].inter, lanes[1+i].err = cursor{s: is}, err
	}
	return measurePenalties(mc, ss.patterns[measured].Name, ms, ss.patterns, lanes, opts)
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
// It fans the (Q, measured application) cells out over workers goroutines
// (zero means runtime.GOMAXPROCS(0), one is sequential). The cells share
// one StreamSet and are otherwise independent sets of single-processor
// runs with their own caches, so the table is identical for every worker
// count.
func BuildTable1(ctx context.Context, mc machine.Config, patterns []memtrace.Pattern, qs []simtime.Duration, budget simtime.Duration, seed uint64, workers int) (Table1, error) {
	return NewStreamSet(patterns, budget, seed).table1(ctx, mc, qs, workers)
}

// table1 is BuildTable1 over the set's patterns, budget and seed.
func (ss *StreamSet) table1(ctx context.Context, mc machine.Config, qs []simtime.Duration, workers int) (Table1, error) {
	t := Table1{
		Qs:    qs,
		Cells: make(map[simtime.Duration]map[string]Penalties),
	}
	for _, p := range ss.patterns {
		t.Apps = append(t.Apps, p.Name)
	}
	// One slot per (q, measured) cell; idx = qi*len(patterns) + pi.
	n := len(ss.patterns)
	cells := make([]Penalties, len(qs)*n)
	err := parallel.ForEach(ctx, workers, len(cells), func(ctx context.Context, idx int) error {
		var err error
		cells[idx], err = ss.MeasureCell(mc, idx%n, qs[idx/n])
		return err
	})
	if err != nil {
		return Table1{}, err
	}
	for qi, q := range qs {
		t.Cells[q] = make(map[string]Penalties)
		for pi, p := range ss.patterns {
			t.Cells[q][p.Name] = cells[qi*n+pi]
		}
	}
	return t, nil
}
