package footprint

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/memtrace"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(-5); err == nil {
		t.Error("negative capacity accepted")
	}
	c, err := New(4096)
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity() != 4096 {
		t.Errorf("Capacity = %v", c.Capacity())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	MustNew(0)
}

func TestLoadAndResident(t *testing.T) {
	c := MustNew(100)
	c.Load(1, 40)
	if got := c.Resident(1); got != 40 {
		t.Errorf("Resident = %v, want 40", got)
	}
	if got := c.Occupied(); got != 40 {
		t.Errorf("Occupied = %v, want 40", got)
	}
	c.Load(1, -5) // no-op
	c.Load(1, 0)  // no-op
	if got := c.Resident(1); got != 40 {
		t.Errorf("Resident after no-op loads = %v", got)
	}
}

func TestLoadCapsAtCapacity(t *testing.T) {
	c := MustNew(100)
	c.Load(1, 500)
	if got := c.Resident(1); got != 100 {
		t.Errorf("Resident = %v, want capacity 100", got)
	}
	if got := c.Occupied(); got != 100 {
		t.Errorf("Occupied = %v", got)
	}
}

func TestProportionalEviction(t *testing.T) {
	c := MustNew(100)
	c.Load(1, 60)
	c.Load(2, 30)
	// Loading 20 more for task 3 requires evicting 10 lines from tasks 1+2
	// proportionally: task1 loses 10*(60/90)=6.67, task2 loses 3.33.
	c.Load(3, 20)
	if got := c.Occupied(); math.Abs(got-100) > 1e-6 {
		t.Errorf("Occupied = %v, want 100", got)
	}
	r1, r2 := c.Resident(1), c.Resident(2)
	if math.Abs(r1-53.333) > 0.01 || math.Abs(r2-26.667) > 0.01 {
		t.Errorf("proportional eviction wrong: r1=%v r2=%v", r1, r2)
	}
	if got := c.Resident(3); got != 20 {
		t.Errorf("Resident(3) = %v", got)
	}
}

func TestOwnLinesNotSelfEvicted(t *testing.T) {
	c := MustNew(100)
	c.Load(1, 90)
	c.Load(1, 50) // capped at capacity, not displacing itself below
	if got := c.Resident(1); got != 100 {
		t.Errorf("Resident = %v, want 100", got)
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(100)
	c.Load(1, 30)
	c.Load(2, 30)
	c.Flush()
	if c.Occupied() != 0 || c.Resident(1) != 0 || c.Resident(2) != 0 {
		t.Error("Flush wrong")
	}
}

func TestSegmentBasics(t *testing.T) {
	p := memtrace.MVAPattern()
	// Empty/inverted intervals cost nothing.
	if got := Segment(p, 10, 10, 0); got != 0 {
		t.Errorf("zero interval = %v", got)
	}
	if got := Segment(p, 20, 10, 0); got != 0 {
		t.Errorf("inverted interval = %v", got)
	}
	// Cold start over 25ms touches about TouchRate(25ms) lines.
	cold := Segment(p, 0, 25*simtime.Millisecond, 0)
	if want := p.TouchRate(25 * simtime.Millisecond); math.Abs(cold-want) > 1e-9 {
		t.Errorf("cold Segment = %v, want %v", cold, want)
	}
	// Full residency means no misses.
	if got := Segment(p, 0, 25*simtime.Millisecond, float64(p.LiveFootprint())); got != 0 {
		t.Errorf("warm Segment = %v, want 0", got)
	}
	// Over-full residency clamps rather than going negative.
	if got := Segment(p, 0, 25*simtime.Millisecond, 2*float64(p.LiveFootprint())); got != 0 {
		t.Errorf("over-warm Segment = %v, want 0", got)
	}
}

func TestRunSegmentUpdatesOccupancy(t *testing.T) {
	p := memtrace.MatrixPattern()
	c := MustNew(4096)
	misses := c.RunSegment(1, p, 0, 100*simtime.Millisecond, 0)
	if misses <= 0 {
		t.Fatal("no misses on cold cache")
	}
	if got := c.Resident(1); math.Abs(got-misses) > 1e-9 {
		t.Errorf("Resident = %v, want %v", got, misses)
	}
}

// Validation against the exact cache simulator: the footprint model's
// predicted reload misses after an intervening task must be within a
// reasonable factor of the misses the exact simulator actually takes.
func TestModelAgreesWithExactCache(t *testing.T) {
	mcCache := cache.SymmetryConfig()
	capLines := mcCache.Lines()
	measured := memtrace.MVAPattern()
	interv := memtrace.MatrixPattern()

	runFor := func(c *cache.Cache, g *memtrace.Generator, owner int, d simtime.Duration) (misses int) {
		start := g.Elapsed()
		for g.Elapsed()-start < d {
			addr, _ := g.Next()
			if !c.Access(owner, addr) {
				misses++
			}
		}
		return misses
	}

	for _, q := range []simtime.Duration{100 * simtime.Millisecond, 200 * simtime.Millisecond, 400 * simtime.Millisecond} {
		// Exact: warm measured task, run intervening for q, resume for q.
		c := cache.MustNew(mcCache)
		gm := memtrace.NewGenerator(measured, 0, 11)
		gi := memtrace.NewGenerator(interv, 1<<40, 13)
		runFor(c, gm, 0, simtime.Second) // warm
		residentBefore := float64(c.Resident(0))
		runFor(c, gi, 1, q)
		residentAfter := float64(c.Resident(0))
		exactResume := runFor(c, gm, 0, q)

		// Model: same protocol end to end.
		fp := MustNew(capLines)
		fp.Load(0, residentBefore)
		fp.RunSegment(1, interv, 0, q, 0)
		modelSurvive := fp.Resident(0)
		modelResume := Segment(measured, 0, q, modelSurvive)

		// Survival prediction within a factor of about 1.6 of exact.
		if residentAfter > 50 {
			ratio := modelSurvive / residentAfter
			if ratio < 0.6 || ratio > 1.6 {
				t.Errorf("q=%v: survival model=%v exact=%v (ratio %.2f)", q, modelSurvive, residentAfter, ratio)
			}
		}
		// Resume-miss prediction within a factor of about 2.2 — the
		// fidelity target at the reallocation intervals the scheduling
		// experiments operate at (Table 3 reports 200–450 ms).
		if exactResume > 50 {
			ratio := modelResume / float64(exactResume)
			if ratio < 0.45 || ratio > 2.2 {
				t.Errorf("q=%v: resume misses model=%v exact=%d (ratio %.2f)", q, modelResume, exactResume, ratio)
			}
		}
	}
}

// Property: occupancy never exceeds capacity and residents stay
// non-negative under arbitrary Load/Invalidate/Flush sequences.
func TestQuickInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed, 2)
		c := MustNew(1000)
		for i := 0; i < 500; i++ {
			switch rng.Intn(10) {
			case 0:
				c.Flush()
			case 1:
				c.Invalidate(one(rng.Intn(5)), float64(rng.Intn(400)), 0)
			default:
				c.Load(rng.Intn(5), float64(rng.Intn(400)))
			}
			if c.Occupied() > c.Capacity()+1e-6 {
				return false
			}
			total := 0.0
			for task := 0; task < 5; task++ {
				r := c.Resident(task)
				if r < 0 {
					return false
				}
				total += r
			}
			if math.Abs(total-c.Occupied()) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Segment is monotone in interval length and antitone in
// residency.
func TestQuickSegmentMonotone(t *testing.T) {
	p := memtrace.GravityPattern()
	f := func(aRaw, bRaw uint16, rRaw uint16) bool {
		a := simtime.Duration(aRaw) * simtime.Millisecond / 4
		b := a + simtime.Duration(bRaw)*simtime.Millisecond/4
		r := float64(rRaw % 4096)
		s1 := Segment(p, 0, a, r)
		s2 := Segment(p, 0, b, r)
		if s2 < s1-1e-9 {
			return false
		}
		lowR := Segment(p, 0, b, r/2)
		return lowR >= s2-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// one is the set holding task alone.
func one(task int) *Tasks {
	t := NewTasks([]int{task})
	return &t
}

// TestTasksMembership: a prepared set holds exactly its ids, whatever its
// shape — empty, a dense range, a dense range missing one id (the first,
// an inner one or the last), or a sparse list.
func TestTasksMembership(t *testing.T) {
	var shapes [][]int
	shapes = append(shapes, nil, []int{7}, []int{3, 4, 5, 6})
	for gap := 0; gap < 6; gap++ {
		var ids []int
		for id := 10; id < 16; id++ {
			if id != 10+gap {
				ids = append(ids, id)
			}
		}
		shapes = append(shapes, ids)
	}
	shapes = append(shapes, []int{1, 3, 5}, []int{2, 3, 6, 7}, []int{1<<20 | 1, 1<<20 | 2, 1<<20 | 4})
	for _, ids := range shapes {
		set := NewTasks(ids)
		for task := -1; task < 20; task++ {
			if got, want := set.has(task), listed(ids, task); got != want {
				t.Errorf("NewTasks(%v).has(%d) = %v, want %v", ids, task, got, want)
			}
		}
		for _, id := range ids {
			if !set.has(id) || set.has(id+1<<21) {
				t.Errorf("NewTasks(%v): membership of %d wrong", ids, id)
			}
		}
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(100)
	c.Load(1, 50)
	if got := c.Invalidate(one(1), 20, 0); got != 20 {
		t.Errorf("Invalidate = %v, want 20", got)
	}
	if c.Resident(1) != 30 || c.Occupied() != 30 {
		t.Errorf("after partial invalidate: r=%v occ=%v", c.Resident(1), c.Occupied())
	}
	// Over-invalidation removes everything and reports the actual amount.
	if got := c.Invalidate(one(1), 100, 0); got != 30 {
		t.Errorf("over-Invalidate = %v, want 30", got)
	}
	if c.Resident(1) != 0 || c.Occupied() != 0 {
		t.Error("residue after full invalidate")
	}
	// Absent task and non-positive amounts are no-ops.
	if got := c.Invalidate(one(9), 10, 0); got != 0 {
		t.Errorf("absent-task Invalidate = %v", got)
	}
	if got := c.Invalidate(one(1), -5, 0); got != 0 {
		t.Errorf("negative Invalidate = %v", got)
	}
}

func TestResetEquivalentToFresh(t *testing.T) {
	c := MustNew(1000)
	c.Load(1, 400)
	c.Load(2, 800)
	c.Reset()
	if c.Occupied() != 0 || c.Resident(1) != 0 || c.Resident(2) != 0 {
		t.Fatalf("reset cache not empty: occ=%v", c.Occupied())
	}
	// Identical behaviour after Reset as on a fresh cache.
	fresh := MustNew(1000)
	for _, cc := range []*Cache{c, fresh} {
		cc.Load(3, 600)
		cc.Load(4, 700)
	}
	if c.Resident(3) != fresh.Resident(3) || c.Resident(4) != fresh.Resident(4) ||
		c.Occupied() != fresh.Occupied() {
		t.Fatalf("reset cache diverges from fresh: %v/%v vs %v/%v",
			c.Resident(3), c.Resident(4), fresh.Resident(3), fresh.Resident(4))
	}
}
