package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/simtime"
)

func TestFiresInTimeOrder(t *testing.T) {
	var q Queue
	var got []int
	q.At(30, func() { got = append(got, 3) })
	q.At(10, func() { got = append(got, 1) })
	q.At(20, func() { got = append(got, 2) })
	for q.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("fire order = %v, want [1 2 3]", got)
	}
	if q.Now() != 30 {
		t.Errorf("Now = %v, want 30", q.Now())
	}
	if q.Fired() != 3 {
		t.Errorf("Fired = %d, want 3", q.Fired())
	}
}

func TestTieBreakIsSchedulingOrder(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(100, func() { got = append(got, i) })
	}
	for q.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	var q Queue
	var at2 simtime.Time
	q.At(5, func() {
		q.After(7, func() { at2 = q.Now() })
	})
	for q.Step() {
	}
	if at2 != 12 {
		t.Fatalf("After fired at %v, want 12", at2)
	}
}

func TestCancel(t *testing.T) {
	var q Queue
	fired := false
	e := q.At(10, func() { fired = true })
	q.Cancel(e)
	if !e.Cancelled() {
		t.Error("event not marked cancelled")
	}
	for q.Step() {
	}
	if fired {
		t.Error("cancelled event fired")
	}
	// Double cancel and nil cancel are no-ops.
	q.Cancel(e)
	q.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	var q Queue
	var got []int
	var es []*Event
	for i := 0; i < 20; i++ {
		i := i
		es = append(es, q.At(simtime.Time(i), func() { got = append(got, i) }))
	}
	// Cancel the odd ones.
	for i := 1; i < 20; i += 2 {
		q.Cancel(es[i])
	}
	for q.Step() {
	}
	if len(got) != 10 {
		t.Fatalf("fired %d events, want 10", len(got))
	}
	for i, v := range got {
		if v != 2*i {
			t.Fatalf("got %v, want evens in order", got)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	var q Queue
	q.At(10, func() {})
	q.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	q.At(5, func() {})
}

func TestNilFirePanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil Fire")
		}
	}()
	q.At(5, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	q.After(-1, func() {})
}

// TestRunUntil drains the queue partway with Step and checks that only the
// events due by then fired, in time order, and the rest stay pending.
func TestRunUntil(t *testing.T) {
	var q Queue
	var got []simtime.Time
	for _, at := range []simtime.Time{5, 10, 15, 20} {
		at := at
		q.At(at, func() { got = append(got, at) })
	}
	for i := 0; i < 3; i++ {
		if !q.Step() {
			t.Fatalf("step %d found the queue empty", i)
		}
	}
	if len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 15 || q.Now() != 15 {
		t.Fatalf("after three steps: fired %v, now=%v", got, q.Now())
	}
	if q.Len() != 1 {
		t.Fatalf("remaining queue wrong: len=%d", q.Len())
	}
	if !q.Step() || q.Now() != 20 || q.Len() != 0 {
		t.Fatalf("last event: now=%v len=%d", q.Now(), q.Len())
	}
}

func TestRunCap(t *testing.T) {
	var q Queue
	var reschedule func()
	reschedule = func() { q.After(1, reschedule) }
	q.After(1, reschedule)
	n, err := q.Run(1000)
	if err == nil {
		t.Fatal("want livelock error")
	}
	if n != 1000 {
		t.Fatalf("fired %d, want 1000", n)
	}
}

func TestRunDrains(t *testing.T) {
	var q Queue
	count := 0
	for i := 0; i < 50; i++ {
		q.At(simtime.Time(i), func() { count++ })
	}
	n, err := q.Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || count != 50 {
		t.Fatalf("n=%d count=%d, want 50", n, count)
	}
}

// Property: for random schedules (with random cancellations), surviving
// events fire in nondecreasing time order and exactly the survivors fire.
func TestQuickRandomScheduleOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		n := 50 + rng.Intn(100)
		type rec struct {
			at        simtime.Time
			ev        *Event
			cancelled bool
		}
		recs := make([]*rec, n)
		var fired []simtime.Time
		for i := 0; i < n; i++ {
			r := &rec{at: simtime.Time(rng.Intn(1000))}
			r.ev = q.At(r.at, func() { fired = append(fired, r.at) })
			recs[i] = r
		}
		for _, r := range recs {
			if rng.Intn(3) == 0 {
				q.Cancel(r.ev)
				r.cancelled = true
			}
		}
		for q.Step() {
		}
		// Order check.
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		// Exactly the survivors fired, as a multiset.
		var want []simtime.Time
		for _, r := range recs {
			if !r.cancelled {
				want = append(want, r.at)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(want) != len(fired) {
			return false
		}
		for i := range want {
			if want[i] != fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: events scheduled at identical times from within a firing event
// still respect global scheduling order.
func TestQuickNestedScheduling(t *testing.T) {
	f := func(k uint8) bool {
		depth := int(k%8) + 1
		var q Queue
		var got []int
		var schedule func(level int)
		schedule = func(level int) {
			if level >= depth {
				return
			}
			q.After(0, func() {
				got = append(got, level)
				schedule(level + 1)
			})
		}
		schedule(0)
		for q.Step() {
		}
		if len(got) != depth {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResetReusesQueue(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 5; i++ {
		i := i
		q.At(simtime.Time(i), func() { got = append(got, i) })
	}
	// Leave two events pending, then reset: they must never fire.
	q.Step()
	q.Step()
	pending := q.At(simtime.Time(99), func() { t.Error("reset event fired") })
	q.Reset()
	if q.Len() != 0 || q.Now() != 0 || q.Fired() != 0 {
		t.Fatalf("after Reset: len=%d now=%v fired=%d", q.Len(), q.Now(), q.Fired())
	}
	if !pending.Cancelled() {
		t.Error("pending event not marked cancelled by Reset")
	}
	// The queue is fully reusable, with sequence numbering restarted so
	// tie-breaks replay identically.
	order := []int{}
	q.At(simtime.Time(1), func() { order = append(order, 1) })
	q.At(simtime.Time(1), func() { order = append(order, 2) })
	for q.Step() {
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("post-Reset order = %v", order)
	}
	if len(got) != 2 {
		t.Fatalf("pre-Reset events fired after reset: %v", got)
	}
}

func TestFreeRecyclesEvents(t *testing.T) {
	var q Queue
	fired := 0
	e1 := q.At(simtime.Time(1), func() { fired++ })
	// Freeing a still-queued event is refused.
	q.Free(e1)
	if e1.Cancelled() {
		t.Fatal("Free removed a queued event")
	}
	q.Step()
	q.Free(e1)
	q.Free(e1) // double-free is a no-op
	if len(q.free) != 1 {
		t.Fatalf("free list = %d, want 1", len(q.free))
	}
	e2 := q.At(simtime.Time(2), func() { fired++ })
	if e2 != e1 {
		t.Error("At did not reuse the freed event")
	}
	if len(q.free) != 0 {
		t.Error("free list not drained")
	}
	q.Step()
	if fired != 2 {
		t.Fatalf("fired = %d", fired)
	}
	q.Free(e2)
	// Cancelled events can be freed too; e3 reuses the freed object and
	// returns it on cancellation.
	e3 := q.At(simtime.Time(3), func() {})
	if e3 != e2 {
		t.Error("At did not reuse the re-freed event")
	}
	q.Cancel(e3)
	q.Free(e3)
	if len(q.free) != 1 {
		t.Fatalf("free list = %d, want 1", len(q.free))
	}
	q.Free(nil) // nil-safe
}

func TestFreeDeterminismAcrossReuse(t *testing.T) {
	// A run that recycles events must fire in the same order as one that
	// does not: ordering depends only on (At, seq).
	run := func(recycle bool) []int {
		var q Queue
		var got []int
		var done []*Event
		for i := 0; i < 20; i++ {
			i := i
			at := simtime.Time((i * 7) % 13)
			e := q.At(at, func() { got = append(got, i) })
			if recycle && i%3 == 0 {
				q.Cancel(e)
				q.Free(e)
				done = append(done, e)
				e2 := q.At(at, func() { got = append(got, i) })
				if e2 != e {
					// Reuse expected but not required for correctness.
					_ = done
				}
			}
		}
		for q.Step() {
		}
		return got
	}
	a, b := run(false), run(true)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestPeakDepth(t *testing.T) {
	var q Queue
	if q.Peak() != 0 {
		t.Fatalf("fresh queue Peak = %d, want 0", q.Peak())
	}
	noop := func() {}
	for i := 0; i < 5; i++ {
		q.At(simtime.Time(i), noop)
	}
	if q.Peak() != 5 {
		t.Fatalf("Peak after 5 pushes = %d, want 5", q.Peak())
	}
	// Draining does not lower the high-water mark.
	for q.Step() {
	}
	if q.Peak() != 5 {
		t.Fatalf("Peak after drain = %d, want 5", q.Peak())
	}
	// Refilling to a lower depth keeps the old peak; exceeding it raises it.
	q.At(q.Now(), noop)
	if q.Peak() != 5 {
		t.Fatalf("Peak after shallow refill = %d, want 5", q.Peak())
	}
	q.Reset()
	if q.Peak() != 0 {
		t.Fatalf("Peak after Reset = %d, want 0", q.Peak())
	}
	for i := 0; i < 7; i++ {
		q.At(simtime.Time(i), noop)
	}
	if q.Peak() != 7 {
		t.Fatalf("Peak after 7 pushes = %d, want 7", q.Peak())
	}
}
