// Package eventq implements the deterministic pending-event set at the heart
// of the discrete-event simulator.
//
// Events are ordered primarily by simulated firing time and secondarily by a
// monotonically increasing sequence number assigned at scheduling time, so
// that two events scheduled for the same instant always fire in the order
// they were scheduled. This tie-break makes whole-simulation runs bitwise
// reproducible, which the experiment harness relies on for replication and
// regression testing.
//
// Scheduled events may be cancelled in O(log n); cancellation is the normal
// case in the scheduler (a processor's thread-completion event is cancelled
// whenever the processor is preempted).
//
// The heap is implemented directly (no container/heap indirection) and Run
// drains simultaneous events into a flat batch before dispatching them, so
// the steady-state event loop performs no interface calls and no
// per-event allocation.
package eventq

import (
	"fmt"

	"repro/internal/simtime"
)

// Event index sentinels. A non-negative index is the event's heap slot.
const (
	// idxDone marks an event that has fired or been cancelled.
	idxDone = -1
	// idxBatched marks an event drained into Run's current batch but not
	// yet fired. Cancelling a batched event moves it to idxDone, which the
	// batch loop observes and skips — batching is invisible to callers.
	idxBatched = -2
)

// Event is a pending simulator action.
type Event struct {
	// At is the simulated instant the event fires.
	At simtime.Time
	// Fire is invoked when the event reaches the head of the queue.
	Fire func()

	seq    uint64
	index  int  // heap slot, or idxDone / idxBatched
	pooled bool // true while parked on the owning queue's free list
}

// Cancelled reports whether the event has been removed from its queue
// (either by Cancel or by firing).
func (e *Event) Cancelled() bool { return e.index == idxDone }

// Queue is a time-ordered pending-event set. The zero value is ready to use.
type Queue struct {
	h       []*Event
	nextSeq uint64
	now     simtime.Time
	fired   uint64
	peak    int      // high-water mark of pending-event depth
	free    []*Event // recycled Event objects (see Free)
	batch   []*Event // reused scratch for Run's same-instant drain
}

// Reset returns the queue to its zero state while retaining the heap's and
// free list's allocated capacity, so one Queue can serve many simulation
// runs (e.g. the replications of an experiment cell) without re-growing its
// backing arrays. Any outstanding *Event pointers become invalid.
func (q *Queue) Reset() {
	for i, e := range q.h {
		e.index = idxDone
		q.h[i] = nil
	}
	q.h = q.h[:0]
	q.nextSeq = 0
	q.now = 0
	q.fired = 0
	q.peak = 0
}

// Free returns a fired or cancelled event to the queue's internal pool so
// a subsequent At/After reuses its allocation. Only the owner of the
// *Event may free it, and must drop every reference at the same time:
// after Free the object will be handed out again by a later At. Freeing
// nil, a still-queued event, or an already-freed event is a no-op, so
// callers can free unconditionally at the points where they nil their
// reference.
func (q *Queue) Free(e *Event) {
	if e == nil || e.index != idxDone || e.pooled {
		return
	}
	e.pooled = true
	e.Fire = nil
	q.free = append(q.free, e)
}

// Now returns the current simulated time: the firing time of the most
// recently popped event (or zero before any event has fired).
func (q *Queue) Now() simtime.Time { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.h) }

// Fired returns the total number of events that have fired.
func (q *Queue) Fired() uint64 { return q.fired }

// Peak returns the high-water mark of pending-event depth since the
// queue was created or last Reset.
func (q *Queue) Peak() int { return q.peak }

// At schedules fire to run at the absolute simulated time at. Scheduling in
// the past (before Now) panics: it always indicates a simulator bug, and
// silently reordering time would corrupt every downstream measurement.
func (q *Queue) At(at simtime.Time, fire func()) *Event {
	if at < q.now {
		panic(fmt.Sprintf("eventq: scheduling at %v, before now %v", at, q.now))
	}
	if fire == nil {
		panic("eventq: nil Fire function")
	}
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		e.pooled = false
		e.At, e.Fire = at, fire
		e.seq = q.nextSeq
	} else {
		e = &Event{At: at, Fire: fire, seq: q.nextSeq}
	}
	q.nextSeq++
	e.index = len(q.h)
	q.h = append(q.h, e)
	q.siftUp(e.index)
	if n := len(q.h); n > q.peak {
		q.peak = n
	}
	return e
}

// After schedules fire to run d after the current simulated time.
func (q *Queue) After(d simtime.Duration, fire func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("eventq: negative delay %v", d))
	}
	return q.At(q.now.Add(d), fire)
}

// Cancel removes e from the queue. Cancelling an event that already fired or
// was already cancelled is a no-op, so callers can cancel unconditionally.
// An event already drained into Run's in-flight batch is marked done and
// will not fire.
func (q *Queue) Cancel(e *Event) {
	if e == nil {
		return
	}
	if e.index == idxBatched {
		e.index = idxDone
		return
	}
	if e.index < 0 {
		return
	}
	q.removeAt(e.index)
	e.index = idxDone
}

// pop removes and returns the earliest pending event, leaving its index at
// idxDone. The caller must know the heap is non-empty.
func (q *Queue) pop() *Event {
	e := q.h[0]
	n := len(q.h) - 1
	q.h[0] = q.h[n]
	q.h[0].index = 0
	q.h[n] = nil
	q.h = q.h[:n]
	if n > 0 {
		q.siftDown(0)
	}
	e.index = idxDone
	return e
}

// removeAt deletes the event in heap slot i.
func (q *Queue) removeAt(i int) {
	n := len(q.h) - 1
	if i != n {
		q.h[i] = q.h[n]
		q.h[i].index = i
		q.h[n] = nil
		q.h = q.h[:n]
		if !q.siftDown(i) {
			q.siftUp(i)
		}
		return
	}
	q.h[n] = nil
	q.h = q.h[:n]
}

// less orders events by (At, seq).
func (q *Queue) less(i, j int) bool {
	a, b := q.h[i], q.h[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (q *Queue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		q.h[i].index = i
		q.h[parent].index = parent
		i = parent
	}
}

// siftDown restores the heap below slot i, reporting whether i moved.
func (q *Queue) siftDown(i int) bool {
	start := i
	n := len(q.h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && q.less(right, left) {
			least = right
		}
		if !q.less(least, i) {
			break
		}
		q.h[i], q.h[least] = q.h[least], q.h[i]
		q.h[i].index = i
		q.h[least].index = least
		i = least
	}
	return i > start
}

// Step pops and fires the earliest pending event, advancing Now to its
// firing time. It reports false when the queue is empty.
func (q *Queue) Step() bool {
	if len(q.h) == 0 {
		return false
	}
	e := q.pop()
	q.now = e.At
	q.fired++
	e.Fire()
	return true
}

// Run fires events until the queue is empty, with a hard cap on the number
// of events as a runaway-simulation backstop. It returns the number of
// events fired and an error if the cap was hit.
//
// Run drains every event scheduled for the same instant into a flat batch
// (a reused scratch slice) before dispatching any of them, so bursts of
// simultaneous events — all arrivals at time zero, a barrier releasing a
// wave of threads — are processed without re-entering the heap per event.
// Semantics are identical to calling Step in a loop: batched events fire in
// (At, seq) order, an event scheduled during the batch for the same instant
// fires after the batch (its seq is necessarily higher), and a batched
// event cancelled by an earlier batch member does not fire.
func (q *Queue) Run(maxEvents uint64) (uint64, error) {
	var n uint64
	for len(q.h) > 0 {
		// Drain the run of events sharing the earliest firing time.
		t := q.h[0].At
		q.batch = q.batch[:0]
		for len(q.h) > 0 && q.h[0].At == t {
			e := q.pop()
			e.index = idxBatched
			q.batch = append(q.batch, e)
		}
		q.now = t
		for i, e := range q.batch {
			q.batch[i] = nil
			if e.index != idxBatched {
				continue // cancelled by an earlier batch member
			}
			e.index = idxDone
			q.fired++
			e.Fire()
			n++
			if n >= maxEvents {
				// Anything still batched returns to pending state for the
				// caller's post-mortem; precise restoration is not needed
				// beyond not leaking idxBatched markers.
				for _, rest := range q.batch[i+1:] {
					if rest != nil && rest.index == idxBatched {
						rest.index = idxDone
					}
				}
				return n, fmt.Errorf("eventq: event cap %d reached at t=%v (likely livelock)", maxEvents, q.now)
			}
		}
	}
	return n, nil
}
