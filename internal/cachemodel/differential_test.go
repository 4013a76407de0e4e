package cachemodel

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/footprint"
	"repro/internal/memtrace"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// protoPatterns fixes each task's reference pattern for the differential
// drivers (a task's stream is created on first use and keyed by task id).
func protoPatterns() []memtrace.Pattern {
	return []memtrace.Pattern{
		memtrace.MVAPattern(),
		memtrace.MatrixPattern(),
		memtrace.GravityPattern(),
		memtrace.MVAPattern(),
	}
}

// driveBoth applies one protocol op to the fast model and the naive oracle
// and fails on any divergence in the returned values.
func driveBoth(t *testing.T, step int, fast, naive Model, op func(Model) float64) {
	t.Helper()
	got, want := op(fast), op(naive)
	if got != want {
		t.Fatalf("step %d: fast returned %v, naive oracle %v", step, got, want)
	}
}

// TestFastMatchesNaiveProtocol drives the single-replay fast path and the
// clone-and-replay-twice oracle through identical random Plan / Commit /
// partial-Commit / InvalidateShared / Resident / Reset sequences and
// requires bitwise-equal results — the whole-protocol version of the cache
// package's differential tests.
func TestFastMatchesNaiveProtocol(t *testing.T) {
	const nprocs, ntasks = 3, 4
	pats := protoPatterns()
	f := func(seed uint64) bool {
		fast, err := NewExact(nprocs, symCfg(), seed)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := NewExactNaive(nprocs, symCfg(), seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed, 0x70a7)
		// planned[p] remembers the last planned (task, w) per processor so
		// the driver can commit full segments (the common case) as well as
		// truncated ones. It also enforces the scheduler invariant the fast
		// path relies on: a task runs on one processor at a time, so it is
		// never planned on a second processor while a plan for it is in
		// flight elsewhere (a pending plan advances the live stream; the
		// oracle's clone-based Plan does not).
		type plan struct {
			task int
			w    simtime.Duration
		}
		planned := make([]plan, nprocs)
		for i := range planned {
			planned[i] = plan{task: -1}
		}
		clearPlan := func(p int) { planned[p] = plan{task: -1} }
		// freeTask picks a task with no in-flight plan on a processor other
		// than p, or -1 when every task is busy.
		freeTask := func(p int) int {
			start := rng.Intn(ntasks)
			for k := 0; k < ntasks; k++ {
				task := (start + k) % ntasks
				busy := false
				for q, pl := range planned {
					if q != p && pl.task == task {
						busy = true
					}
				}
				if !busy {
					return task
				}
			}
			return -1
		}
		for step := 0; step < 250; step++ {
			p := rng.Intn(nprocs)
			w := simtime.Duration(1+rng.Intn(30)) * simtime.Millisecond
			switch rng.Intn(10) {
			case 0, 1: // plan only
				task := freeTask(p)
				if task < 0 {
					continue
				}
				pat := pats[task]
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Plan(p, task, &pat, 0, w, 0)
				})
				planned[p] = plan{task: task, w: w}
			case 2, 3, 4, 5: // plan then commit the full segment
				task := freeTask(p)
				if task < 0 {
					continue
				}
				pat := pats[task]
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Plan(p, task, &pat, 0, w, 0)
				})
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Commit(p, task, &pat, 0, w, 0)
				})
				clearPlan(p)
			case 6: // commit a truncated or unplanned segment
				task, wc := freeTask(p), w
				if pl := planned[p]; pl.task >= 0 && rng.Intn(2) == 0 {
					task = pl.task
					wc = pl.w * simtime.Duration(rng.Intn(2)) / 2 // 0 or half
				}
				if task < 0 {
					continue
				}
				pat := pats[task]
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Commit(p, task, &pat, 0, wc, 0)
				})
				clearPlan(p)
			case 7: // coherency invalidation between a sibling's plan/commit
				lines := float64(rng.Intn(200))
				sibs := []int{rng.Intn(ntasks), rng.Intn(ntasks)}
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.InvalidateShared(p, sibs, lines)
				})
			case 8: // residency query (resolves p's pending plan)
				task := rng.Intn(ntasks)
				driveBoth(t, step, fast, naive, func(m Model) float64 {
					return m.Resident(p, task)
				})
				clearPlan(p)
			case 9:
				if rng.Intn(10) == 0 {
					fast.Reset()
					naive.Reset()
					for i := range planned {
						clearPlan(i)
					}
				}
			}
		}
		// Final states agree everywhere.
		for p := 0; p < nprocs; p++ {
			for task := 0; task < ntasks; task++ {
				if got, want := fast.Resident(p, task), naive.Resident(p, task); got != want {
					t.Fatalf("final Resident(%d,%d): fast %v naive %v", p, task, got, want)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestCommitWithoutPlanMatchesOracle pins the cold paths: a commit with no
// preceding plan, and a zero-length commit after a plan (total truncation),
// both match the oracle.
func TestCommitWithoutPlanMatchesOracle(t *testing.T) {
	pat := memtrace.MVAPattern()
	fast, _ := NewExact(1, symCfg(), 11)
	naive, _ := NewExactNaive(1, symCfg(), 11)
	w := 40 * simtime.Millisecond

	driveBoth(t, 0, fast, naive, func(m Model) float64 {
		return m.Commit(0, 1, &pat, 0, w, 0)
	})
	// Plan then commit zero work: the plan must be fully undone.
	driveBoth(t, 1, fast, naive, func(m Model) float64 {
		return m.Plan(0, 1, &pat, w, w, 0)
	})
	driveBoth(t, 2, fast, naive, func(m Model) float64 {
		return m.Commit(0, 1, &pat, w, 0, 0)
	})
	// The next full segment sees identical state in both worlds.
	driveBoth(t, 3, fast, naive, func(m Model) float64 {
		return m.Commit(0, 1, &pat, w, w, 0)
	})
}

// BenchmarkExactSegmentFast measures the exact model's per-segment cost on
// the fast single-replay path: one Plan + full-segment Commit, the
// scheduler's common case. Compare with BenchmarkExactSegmentNaive.
func BenchmarkExactSegmentFast(b *testing.B) {
	benchSegment(b, false)
}

// BenchmarkExactSegmentNaive measures the same Plan + Commit segment under
// the original clone-and-replay-twice protocol.
func BenchmarkExactSegmentNaive(b *testing.B) {
	benchSegment(b, true)
}

func benchSegment(b *testing.B, naive bool) {
	var m Model
	var err error
	if naive {
		m, err = NewExactNaive(1, symCfg(), 1)
	} else {
		m, err = NewExact(1, symCfg(), 1)
	}
	if err != nil {
		b.Fatal(err)
	}
	pat := memtrace.MVAPattern()
	w := 10 * simtime.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0 := simtime.Duration(i) * w
		m.Plan(0, 1, &pat, c0, w, 0)
		m.Commit(0, 1, &pat, c0, w, 0)
	}
}

// BenchmarkExactSegmentPreempt measures the rollback path: every plan is
// truncated to half before commit.
func BenchmarkExactSegmentPreempt(b *testing.B) {
	m, err := NewExact(1, symCfg(), 1)
	if err != nil {
		b.Fatal(err)
	}
	pat := memtrace.MVAPattern()
	w := 10 * simtime.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0 := simtime.Duration(i) * w
		m.Plan(0, 1, &pat, c0, w, 0)
		m.Commit(0, 1, &pat, c0, w/2, 0)
	}
}

// TestFootprintInvalidateMatchesSiblingLoop drives random residency and
// ascending sibling lists through Footprint.InvalidateShared, which
// prepares the sibling set once and scans each processor's resident
// entries in one pass (falling back to an ordered scan when several
// siblings are resident), and through the sibling-order loop it replaced,
// which invalidates every sibling on every other processor in turn and
// adds each amount to the total as it goes. The totals must be bitwise
// equal and every processor's entries identical, order included: a later
// Load's displacement sums over the entries in slice order.
//
// Task ids are two jobs' ids as the scheduler assigns them (job<<20 |
// task+1). Sibling lists take every shape the scheduler's can and some it
// cannot: a job's whole dense range, the range up to its newest task minus
// the writer (the scheduler's shape), and sparse subsets. The counters
// check that processors held none, one and several siblings, and that
// sweeps removed residencies partially and fully.
func TestFootprintInvalidateMatchesSiblingLoop(t *testing.T) {
	const nprocs, perJob = 6, 12
	gid := func(job, task int) int { return job<<20 | (task + 1) }
	var partial, removed, absent int
	var resident [3]int // processors holding 0, 1 and several siblings
	var shapes [3]int   // dense, dense minus writer, sparse
	for seed := uint64(1); seed <= 60; seed++ {
		rng := xrand.New(seed, 0x1a7)
		capacity := 200 + rng.Intn(4000)
		got, err := NewFootprint(nprocs, capacity)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewFootprint(nprocs, capacity)
		for step := 0; step < 300; step++ {
			if rng.Intn(3) > 0 {
				p, task, lines := rng.Intn(nprocs), gid(rng.Intn(2), rng.Intn(perJob)), float64(rng.Intn(capacity))*rng.Float64()
				got.procs[p].Load(task, lines)
				want.procs[p].Load(task, lines)
				continue
			}
			job, n := rng.Intn(2), 1+rng.Intn(perJob)
			var siblings []int
			switch shape := rng.Intn(3); shape {
			case 0:
				for task := 0; task < n; task++ {
					siblings = append(siblings, gid(job, task))
				}
				shapes[shape]++
			case 1:
				writer := rng.Intn(n)
				for task := 0; task < n; task++ {
					if task != writer {
						siblings = append(siblings, gid(job, task))
					}
				}
				shapes[shape]++
			default:
				for task := 0; task < perJob; task++ {
					if rng.Intn(3) == 0 {
						siblings = append(siblings, gid(job, task))
					}
				}
				shapes[shape]++
			}
			from := rng.Intn(nprocs)
			lines := float64(rng.Intn(400)) * rng.Float64()
			if rng.Intn(10) == 0 {
				lines = -lines
			}
			total := 0.0
			for p, fc := range want.procs {
				if p == from {
					continue
				}
				held := 0
				for _, sib := range siblings {
					r := fc.Resident(sib)
					switch {
					case r == 0:
						absent++
					case lines > 0 && lines < r:
						partial++
					case lines > 0:
						removed++
					}
					if r > 0 {
						held++
					}
					one := footprint.NewTasks([]int{sib})
					total = fc.Invalidate(&one, lines, total)
				}
				resident[min(held, 2)]++
			}
			if g := got.InvalidateShared(from, siblings, lines); math.Float64bits(g) != math.Float64bits(total) {
				t.Fatalf("seed %d step %d: InvalidateShared = %v, sibling loop %v", seed, step, g, total)
			}
			for p := range got.procs {
				if !reflect.DeepEqual(got.procs[p], want.procs[p]) {
					t.Fatalf("seed %d step %d: processor %d diverged:\ngot  %+v\nwant %+v",
						seed, step, p, *got.procs[p], *want.procs[p])
				}
			}
		}
	}
	t.Logf("%d partial, %d full, %d absent; processors holding 0/1/several siblings %v; dense/gap/sparse lists %v",
		partial, removed, absent, resident, shapes)
	if partial == 0 || removed == 0 || absent == 0 || resident[0] == 0 || resident[1] == 0 || resident[2] == 0 ||
		shapes[0] == 0 || shapes[1] == 0 || shapes[2] == 0 {
		t.Errorf("inputs missed a case: %d partial, %d removed, %d absent, residency %v, shapes %v",
			partial, removed, absent, resident, shapes)
	}
}

// TestFootprintCommitReusesPlan: a Commit with the preceding Plan's
// arguments installs the planned count, and must leave the same misses and
// occupancy, bit for bit, as evaluating the segment afresh
// (footprint.Cache.RunSegment) — for full segments, truncated ones, other
// tasks' commits in between, and plans never committed. Stats count every
// call either way.
func TestFootprintCommitReusesPlan(t *testing.T) {
	const nprocs = 4
	pats := []memtrace.Pattern{memtrace.MVAPattern(), memtrace.MatrixPattern(), memtrace.GravityPattern()}
	var reused, fresh int
	for seed := uint64(1); seed <= 20; seed++ {
		rng := xrand.New(seed, 0xc0)
		m, err := NewFootprint(nprocs, 4096)
		if err != nil {
			t.Fatal(err)
		}
		ref, _ := NewFootprint(nprocs, 4096)
		var plans, commits uint64
		for step := 0; step < 400; step++ {
			p, task := rng.Intn(nprocs), rng.Intn(6)
			pat := &pats[task%len(pats)]
			c0 := simtime.Duration(rng.Intn(200)) * simtime.Millisecond
			w := simtime.Duration(1+rng.Intn(400)) * simtime.Millisecond
			r0 := ref.procs[p].Resident(task)
			planned := m.Plan(p, task, pat, c0, w, r0)
			plans++
			full := false
			switch rng.Intn(4) {
			case 0: // preempted: a prefix executes
				w = w.Scale(rng.Float64())
				fresh++
			case 1: // the plan is abandoned
				continue
			default:
				full = true
				reused++
			}
			if rng.Intn(5) == 0 { // another processor commits in between
				q := (p + 1) % nprocs
				m.Commit(q, task+1, pat, 0, w, 0)
				ref.procs[q].RunSegment(task+1, pat, 0, w, 0)
				commits++
			}
			g := m.Commit(p, task, pat, c0, w, r0)
			commits++
			want := ref.procs[p].RunSegment(task, pat, c0, c0+w, r0)
			if math.Float64bits(g) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: Commit = %v, RunSegment %v", seed, step, g, want)
			}
			if full && math.Float64bits(g) != math.Float64bits(planned) {
				t.Fatalf("seed %d step %d: planned %v, committed %v", seed, step, planned, g)
			}
			for q := range m.procs {
				if !reflect.DeepEqual(m.procs[q], ref.procs[q]) {
					t.Fatalf("seed %d step %d: processor %d diverged:\ngot  %+v\nwant %+v",
						seed, step, q, *m.procs[q], *ref.procs[q])
				}
			}
		}
		if st := m.Stats(); st.Plans != plans || st.Commits != commits {
			t.Fatalf("seed %d: stats %+v, want %d plans and %d commits", seed, st, plans, commits)
		}
	}
	if reused == 0 || fresh == 0 {
		t.Errorf("inputs missed a case: %d full, %d truncated", reused, fresh)
	}
}
