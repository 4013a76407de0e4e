// Package bus models contention on the shared memory bus.
//
// Every cache miss occupies the bus for the uncontended line-fill time; the
// observed service time is inflated by a queueing factor derived from the
// bus utilization over a sliding window, approximating an M/M/1 server:
// service = fill / (1 - ρ), clamped. The paper folds contention into the
// work term of its response-time model (Section 2); this component exists
// so that migration-heavy schedules, which raise miss rates, also raise
// effective work — the same indirect effect the paper describes.
package bus

import (
	"fmt"

	"repro/internal/simtime"
)

// maxInflation caps the contention multiplier so that a transiently
// saturated window cannot stall the simulation.
const maxInflation = 8.0

// ringLen is the number of buckets the sliding window is divided into.
const ringLen = 16

// Bus tracks utilization of the shared bus over a sliding window of
// fixed-width buckets and computes contention-inflated miss service times.
//
// The ring's busy total is always a whole number k of fills (each fill
// adds one; a rotation removes whole buckets of them), so the inflated
// cost of a fill depends on k alone. A Bus keeps a prefix table of those
// integer costs, grown lazily as larger k are reached and kept across
// Reset while the fill time and bucket width stay the same; it holds one
// sum every 1<<costShift fills, under 64 KiB at every valid machine size
// (about 37 KiB at the largest product's 133 ns fill), and costs between
// two stored sums are evaluated on demand.
type Bus struct {
	fill    simtime.Duration
	bucketW simtime.Duration
	busy    [ringLen]simtime.Duration // busy time per bucket, ring buffer
	cur     int64                     // index of the current bucket (monotonic)
	next    simtime.Time              // start of bucket cur+1: advance is due at or after it
	total   simtime.Duration          // busy time summed over the ring

	// costs[i] is the summed service time of fills 0 .. i<<costShift - 1,
	// fill k costing fillCost(k). Its full length is satBlocks+1 entries;
	// every fill from satBlocks<<costShift on reads a saturated window and
	// costs the plain fill time.
	costs     []simtime.Duration
	costShift uint
	satBlocks int64

	transactions uint64
	busyAllTime  simtime.Duration
}

// maxCostEntries bounds a Bus's prefix table: 8,191 sums, under 64 KiB.
const maxCostEntries = 64<<10/8 - 1

// New creates a bus with the given uncontended line-fill time and averaging
// window. The window is divided into ringLen buckets.
func New(fill, window simtime.Duration) (*Bus, error) {
	if fill <= 0 {
		return nil, fmt.Errorf("bus: fill time must be positive, got %v", fill)
	}
	if window < ringLen {
		return nil, fmt.Errorf("bus: window too small: %v", window)
	}
	b := &Bus{}
	b.Reset(fill, window)
	return b, nil
}

// MustNew is New for known-good parameters.
func MustNew(fill, window simtime.Duration) *Bus {
	b, err := New(fill, window)
	if err != nil {
		panic(err)
	}
	return b
}

// Reset reinitialises b in place with new parameters. A reset bus is
// indistinguishable from MustNew(fill, window); like MustNew it panics on
// invalid parameters. The prefix table of fill costs survives when fill
// and the bucket width are unchanged, and its storage is reused when it
// is large enough for the new parameters.
func (b *Bus) Reset(fill, window simtime.Duration) {
	if fill <= 0 {
		panic(fmt.Sprintf("bus: fill time must be positive, got %v", fill))
	}
	if window < ringLen {
		panic(fmt.Sprintf("bus: window too small: %v", window))
	}
	bucketW := window / ringLen
	keep := b.costs != nil && fill == b.fill && bucketW == b.bucketW
	costs, shift, sat := b.costs, b.costShift, b.satBlocks
	*b = Bus{fill: fill, bucketW: bucketW, next: simtime.Time(bucketW)}
	if keep {
		b.costs, b.costShift, b.satBlocks = costs, shift, sat
		return
	}
	// The first fill whose window reads saturated, k·fill >= window up
	// to float rounding: fillCost is monotone in k until there, so step
	// from the integer estimate to the exact threshold.
	k := int64(b.window() / fill)
	for k > 0 && b.saturated(k-1) {
		k--
	}
	for !b.saturated(k) {
		k++
	}
	b.costShift = 4
	for k>>b.costShift+2 > maxCostEntries {
		b.costShift++
	}
	b.satBlocks = k>>b.costShift + 1
	if int64(cap(costs)) < b.satBlocks+1 {
		costs = make([]simtime.Duration, 0, b.satBlocks+1)
	}
	b.costs = append(costs[:0], 0)
}

// advance rotates the ring so that it covers the bucket containing now,
// emptying the buckets it passes; an idle gap clears at most the whole
// ring. Callers skip it while now is before b.next, so its division runs
// once per bucket crossed rather than once per transaction.
func (b *Bus) advance(now simtime.Time) {
	if now < b.next {
		return
	}
	idx := int64(now) / int64(b.bucketW)
	for c := max(b.cur, idx-ringLen) + 1; c <= idx; c++ {
		s := c % ringLen
		b.total -= b.busy[s]
		b.busy[s] = 0
	}
	b.cur = idx
	b.next = simtime.Time((idx + 1) * int64(b.bucketW))
}

// window returns the sliding window's length.
func (b *Bus) window() simtime.Duration {
	return b.bucketW * ringLen
}

// utilization returns the busy fraction of a window holding k fills,
// clamped at 1.
func (b *Bus) utilization(k int64) float64 {
	u := float64(simtime.Duration(k)*b.fill) / float64(b.window())
	if u > 1 {
		u = 1
	}
	return u
}

// saturated reports whether a window holding k fills reads fully busy.
func (b *Bus) saturated(k int64) bool { return b.utilization(k) >= 1 }

// fillCost returns the inflated service time of a fill that starts with k
// fills in the window: inflated by 1/(1-u) up to maxInflation, and a
// saturated window (u = 1) is charged the plain fill time.
func (b *Bus) fillCost(k int64) simtime.Duration {
	u := b.utilization(k)
	inflation := 1.0
	if u < 1 {
		inflation = 1 / (1 - u)
	}
	if inflation > maxInflation {
		inflation = maxInflation
	}
	return b.fill.Scale(inflation)
}

// block returns costs[i], growing the table through entry i.
func (b *Bus) block(i int64) simtime.Duration {
	for int64(len(b.costs)) <= i {
		j := int64(len(b.costs)) - 1
		p := b.costs[j]
		for k := j << b.costShift; k < (j+1)<<b.costShift; k++ {
			p += b.fillCost(k)
		}
		b.costs = append(b.costs, p)
	}
	return b.costs[i]
}

// scan adds the costs of fills j, j+1, ... to d until d reaches rel or j
// reaches end, crossing the saturated tail, where every fill costs the
// plain fill time, in one step.
func (b *Bus) scan(j, end int64, d, rel simtime.Duration) (int64, simtime.Duration) {
	for j < end && d < rel {
		if j >= b.satBlocks<<b.costShift {
			step := min(end-j, int64((rel-d+b.fill-1)/b.fill))
			return j + step, d + simtime.Duration(step)*b.fill
		}
		d += b.fillCost(j)
		j++
	}
	return j, d
}

// reach returns how far back-to-back fills k, k+1, ... get before their
// summed cost reaches rel: the smallest j in (k, hi] whose fills k .. j-1
// cost at least rel, or hi when none does, with that cost. It evaluates
// costs one by one up to the next stored sum, binary-searches the stored
// sums beyond it, and evaluates at most one more stride of costs.
func (b *Bus) reach(k, hi int64, rel simtime.Duration) (int64, simtime.Duration) {
	if k >= b.satBlocks<<b.costShift {
		return b.scan(k, hi, 0, rel)
	}
	j, d := b.scan(k, min(hi, (k>>b.costShift+1)<<b.costShift), 0, rel)
	if j == hi || d >= rel {
		return j, d
	}
	// j is the boundary of stored sum i, and the fills k .. j-1 cost d:
	// find the last stored sum still short of the target.
	i := j >> b.costShift
	base := b.block(i) - d
	target := base + rel
	lo, top := i+1, min(hi>>b.costShift, b.satBlocks)
	for lo <= top {
		mid := lo + (top-lo)/2
		if b.block(mid) < target {
			lo = mid + 1
		} else {
			top = mid - 1
		}
	}
	j, p := b.scan(top<<b.costShift, hi, b.costs[top], target)
	return j, p - base
}

// Utilization returns the fraction of the sliding window the bus was busy,
// in [0, 1].
func (b *Bus) Utilization(now simtime.Time) float64 {
	b.advance(now)
	return b.utilization(int64(b.total / b.fill))
}

// Service records one line-fill transaction starting at now and returns its
// contention-inflated duration.
func (b *Bus) Service(now simtime.Time) simtime.Duration {
	return b.ServiceN(now, 1)
}

// ServiceN records n back-to-back transactions, the first starting at now
// and each next one when the previous ends, and returns their total
// inflated duration. It is the bulk path used when a resuming task reloads
// many lines at once.
//
// Each transaction sees the utilization left by the ones before it:
// u = total/window (clamped at 1), inflated by 1/(1-u) up to maxInflation,
// and a saturated window (u = 1) is charged the plain fill time. The ring
// only rotates when a transaction starts at or past the next bucket
// boundary, so the transactions between two boundaries all start from
// consecutive totals k, k+1, ...: their summed cost is a difference of
// two prefix sums, and the first to start past the boundary is found by
// binary search. A call costs O(buckets crossed), not O(n).
func (b *Bus) ServiceN(now simtime.Time, n int) simtime.Duration {
	if n <= 0 {
		return 0
	}
	var sum simtime.Duration
	t := now
	for left := int64(n); left > 0; {
		b.advance(t)
		// The transactions that start before b.next land in the current
		// bucket, from the window's k fills on.
		k := int64(b.total / b.fill)
		j, d := b.reach(k, k+left, b.next.Sub(t))
		m := j - k
		b.busy[uint64(b.cur)%ringLen] += simtime.Duration(m) * b.fill
		b.total += simtime.Duration(m) * b.fill
		sum += d
		t = now.Add(sum)
		left -= m
	}
	b.transactions += uint64(n)
	b.busyAllTime += b.fill * simtime.Duration(n)
	return sum
}

// Stats describes cumulative bus activity.
type Stats struct {
	Transactions uint64
	BusyTime     simtime.Duration
}

// Stats returns cumulative counters.
func (b *Bus) Stats() Stats {
	return Stats{Transactions: b.transactions, BusyTime: b.busyAllTime}
}
