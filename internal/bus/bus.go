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
type Bus struct {
	fill    simtime.Duration
	bucketW simtime.Duration
	busy    [ringLen]simtime.Duration // busy time per bucket, ring buffer
	cur     int64                     // index of the current bucket (monotonic)
	next    simtime.Time              // start of bucket cur+1: advance is due at or after it
	total   simtime.Duration          // busy time summed over the ring

	transactions uint64
	busyAllTime  simtime.Duration
}

// New creates a bus with the given uncontended line-fill time and averaging
// window. The window is divided into ringLen buckets.
func New(fill, window simtime.Duration) (*Bus, error) {
	if fill <= 0 {
		return nil, fmt.Errorf("bus: fill time must be positive, got %v", fill)
	}
	if window < ringLen {
		return nil, fmt.Errorf("bus: window too small: %v", window)
	}
	bucketW := window / ringLen
	return &Bus{fill: fill, bucketW: bucketW, next: simtime.Time(bucketW)}, nil
}

// MustNew is New for known-good parameters.
func MustNew(fill, window simtime.Duration) *Bus {
	b, err := New(fill, window)
	if err != nil {
		panic(err)
	}
	return b
}

// Reset reinitialises b in place with new parameters. A reset bus is indistinguishable from MustNew(fill, window); like
// MustNew it panics on invalid parameters.
func (b *Bus) Reset(fill, window simtime.Duration) {
	if fill <= 0 {
		panic(fmt.Sprintf("bus: fill time must be positive, got %v", fill))
	}
	if window < ringLen {
		panic(fmt.Sprintf("bus: window too small: %v", window))
	}
	*b = Bus{fill: fill, bucketW: window / ringLen, next: simtime.Time(window / ringLen)}
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

// Utilization returns the fraction of the sliding window the bus was busy,
// in [0, 1].
func (b *Bus) Utilization(now simtime.Time) float64 {
	b.advance(now)
	u := float64(b.total) / float64(b.window())
	if u > 1 {
		u = 1
	}
	return u
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
// boundary.
func (b *Bus) ServiceN(now simtime.Time, n int) simtime.Duration {
	if n <= 0 {
		return 0
	}
	window := float64(b.window())
	fill, busy := b.fill, &b.busy
	total, next := b.total, b.next
	slot := uint64(b.cur) % ringLen
	var sum simtime.Duration
	t := now
	for i := 0; i < n; i++ {
		if t >= next {
			b.total = total
			b.advance(t)
			total, next = b.total, b.next
			slot = uint64(b.cur) % ringLen
		}
		u := float64(total) / window
		if u > 1 {
			u = 1
		}
		inflation := 1.0
		if u < 1 {
			inflation = 1 / (1 - u)
		}
		if inflation > maxInflation {
			inflation = maxInflation
		}
		// Bus occupancy is the uncontended transfer time.
		busy[slot] += fill
		total += fill
		sum += fill.Scale(inflation)
		t = now.Add(sum)
	}
	b.total = total
	b.transactions += uint64(n)
	b.busyAllTime += fill * simtime.Duration(n)
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
