package workload

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/simtime"
	"repro/internal/xrand"
)

// naiveGraph is the test oracle: the thread table a Graph must describe,
// held as plain per-thread successor lists and traversed with the
// straightforward frontier-by-frontier Kahn algorithm.
type naiveGraph struct {
	work   []simtime.Duration
	succs  [][]ThreadID
	npreds []int
}

func newNaiveGraph(work []simtime.Duration, edges [][2]ThreadID) naiveGraph {
	ng := naiveGraph{work: work, succs: make([][]ThreadID, len(work)), npreds: make([]int, len(work))}
	for _, e := range edges {
		ng.succs[e[0]] = append(ng.succs[e[0]], e[1])
		ng.npreds[e[1]]++
	}
	return ng
}

func (ng naiveGraph) roots() []ThreadID {
	var out []ThreadID
	for id, n := range ng.npreds {
		if n == 0 {
			out = append(out, ThreadID(id))
		}
	}
	return out
}

func (ng naiveGraph) levels() []Level {
	preds := slices.Clone(ng.npreds)
	var out []Level
	for frontier := ng.roots(); len(frontier) > 0; {
		lv := Level{Width: len(frontier)}
		var next []ThreadID
		for _, id := range frontier {
			lv.Work += ng.work[id]
			for _, s := range ng.succs[id] {
				preds[s]--
				if preds[s] == 0 {
					next = append(next, s)
				}
			}
		}
		out = append(out, lv)
		frontier = next
	}
	return out
}

// criticalPath relaxes longest finishing times in level order, which is a
// topological order.
func (ng naiveGraph) criticalPath() simtime.Duration {
	finish := make([]simtime.Duration, len(ng.work))
	start := make([]simtime.Duration, len(ng.work))
	preds := slices.Clone(ng.npreds)
	var best simtime.Duration
	for frontier := ng.roots(); len(frontier) > 0; {
		var next []ThreadID
		for _, id := range frontier {
			finish[id] = start[id] + ng.work[id]
			best = max(best, finish[id])
			for _, s := range ng.succs[id] {
				start[s] = max(start[s], finish[id])
				if preds[s]--; preds[s] == 0 {
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	return best
}

// randomDAG draws a random acyclic graph: threads in a random topological
// order under shuffled IDs, forward edges (duplicates allowed) added in a
// shuffled order so AddDep order differs from source order.
func randomDAG(seed uint64) ([]simtime.Duration, [][2]ThreadID) {
	rng := xrand.New(seed, 11)
	n := 1 + rng.Intn(60)
	work := make([]simtime.Duration, n)
	for i := range work {
		work[i] = simtime.Duration(1+rng.Intn(1000)) * simtime.Millisecond
	}
	perm := make([]ThreadID, n)
	for i := range perm {
		perm[i] = ThreadID(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	var edges [][2]ThreadID
	density := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for rng.Intn(density+2) == 0 {
				edges = append(edges, [2]ThreadID{perm[i], perm[j]})
			}
		}
	}
	for i := len(edges) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	return work, edges
}

func TestGraphMatchesNaiveOracle(t *testing.T) {
	for seed := uint64(0); seed < 500; seed++ {
		work, edges := randomDAG(seed)
		var b GraphBuilder
		for _, w := range work {
			b.AddThread(w)
		}
		for _, e := range edges {
			b.AddDep(e[0], e[1])
		}
		g, err := b.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ng := newNaiveGraph(work, edges)
		if g.NumThreads() != len(work) {
			t.Fatalf("seed %d: NumThreads %d, want %d", seed, g.NumThreads(), len(work))
		}
		var total simtime.Duration
		for id := range work {
			th := g.Thread(ThreadID(id))
			total += work[id]
			if th.Work != work[id] || th.NPreds != ng.npreds[id] || !slices.Equal(th.Succs, ng.succs[id]) {
				t.Fatalf("seed %d thread %d: got %+v, want work %v npreds %d succs %v",
					seed, id, th, work[id], ng.npreds[id], ng.succs[id])
			}
			if len(th.Succs) != cap(th.Succs) {
				t.Fatalf("seed %d thread %d: Succs capacity %d exceeds length %d", seed, id, cap(th.Succs), len(th.Succs))
			}
		}
		if got, want := g.Roots(), ng.roots(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: Roots %v, want %v", seed, got, want)
		}
		wantLevels := ng.levels()
		if !slices.Equal(g.Levels(), wantLevels) {
			t.Fatalf("seed %d: Levels %v, want %v", seed, g.Levels(), wantLevels)
		}
		maxWidth := 0
		for _, lv := range wantLevels {
			maxWidth = max(maxWidth, lv.Width)
		}
		if g.MaxWidth() != maxWidth {
			t.Fatalf("seed %d: MaxWidth %d, want %d", seed, g.MaxWidth(), maxWidth)
		}
		if g.TotalWork() != total {
			t.Fatalf("seed %d: TotalWork %v, want %v", seed, g.TotalWork(), total)
		}
		if got, want := g.CriticalPath(), ng.criticalPath(); got != want {
			t.Fatalf("seed %d: CriticalPath %v, want %v", seed, got, want)
		}
	}
}

// TestBuildErrorsUnchanged pins the validation errors' text and which one
// wins when several apply.
func TestBuildErrorsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		threads int
		edges   [][2]ThreadID
		want    string
	}{
		{0, nil, "workload: graph has no threads"},
		{1, [][2]ThreadID{{0, 5}}, "workload: edge [0 5] out of range"},
		{2, [][2]ThreadID{{-1, 1}}, "workload: edge [-1 1] out of range"},
		{2, [][2]ThreadID{{0, 1}, {1, 1}, {0, 7}}, "workload: self-edge on thread 1"},
		{2, [][2]ThreadID{{0, 1}, {1, 0}}, "workload: graph has no roots (cyclic)"},
		{3, [][2]ThreadID{{0, 1}, {1, 2}, {2, 1}}, "workload: graph contains a cycle"},
	} {
		var b GraphBuilder
		for i := 0; i < tc.threads; i++ {
			b.AddThread(simtime.Second)
		}
		for _, e := range tc.edges {
			b.AddDep(e[0], e[1])
		}
		_, err := b.Build()
		if err == nil || err.Error() != tc.want {
			t.Errorf("threads %d edges %v: error %v, want %q", tc.threads, tc.edges, err, tc.want)
		}
	}
}

// freshGraphSeed hands out GRAVITY jitter seeds no other caller uses, so
// each build misses the graph cache.
var freshGraphSeed atomic.Uint64

func init() { freshGraphSeed.Store(1 << 62) }

// TestGravityBuildAllocs bounds the allocations of one fast-scale GRAVITY
// build (7 steps of 4 phases 128 wide, 3,619 threads) for a new seed of a
// cached shape: the cache entry, the work slice, the App's pattern, the
// level profile and the Graph, not one per thread. It reads 5, and 6
// under -race, where slices.Grow allocates a temporary.
func TestGravityBuildAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		GravitySized(7, 128, 200*simtime.Millisecond, 20*simtime.Millisecond, freshGraphSeed.Add(1))
	})
	if allocs > 6 {
		t.Errorf("fast-scale GRAVITY build: %v allocs, want <= 6", allocs)
	}
}

// scratchGravity builds a GRAVITY graph the way a standalone constructor
// would, threads and edges through one GraphBuilder: the oracle for the
// shared-shape construction.
func scratchGravity(t *testing.T, steps, width int, seqWork, parWork simtime.Duration, seed uint64) *Graph {
	t.Helper()
	rng := xrand.New(seed, 0xc0ffee)
	var b GraphBuilder
	var prevBarrier ThreadID = -1
	for s := 0; s < steps; s++ {
		seq := b.AddThread(seqWork)
		if prevBarrier >= 0 {
			b.AddDep(prevBarrier, seq)
		}
		join := seq
		for ph := 0; ph < gravityPhases; ph++ {
			barrier := b.AddThread(10 * simtime.Millisecond)
			for w := 0; w < width; w++ {
				id := b.AddThread(parWork.Scale((0.6 + 0.2*float64(ph)) * (0.75 + rng.Float64()/2)))
				b.AddDep(join, id)
				b.AddDep(id, barrier)
			}
			join = barrier
		}
		prevBarrier = join
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGravitySharedShapeMatchesScratch checks that every seed's graph,
// sharing its shape's rows, describes exactly the graph a from-scratch
// build gives, at fast and paper scale and the scheduler tests' shape, and
// that two seeds of one shape do share successor storage.
func TestGravitySharedShapeMatchesScratch(t *testing.T) {
	for _, sh := range []struct {
		steps, width     int
		seqWork, parWork simtime.Duration
	}{
		{7, 128, 200 * simtime.Millisecond, 20 * simtime.Millisecond},
		{gravitySteps, gravityWidth, gravitySeqWork, gravityWork},
		{3, 24, 50 * simtime.Millisecond, 20 * simtime.Millisecond},
	} {
		// Start from an empty cache so a bound-triggered clear cannot fall
		// between two seeds and give them separately built shapes.
		graphCache.Lock()
		clear(graphCache.m)
		graphCache.Unlock()
		var first *Graph
		for _, seed := range []uint64{1, 2, 7, 1 << 40, freshGraphSeed.Add(1)} {
			g := GravitySized(sh.steps, sh.width, sh.seqWork, sh.parWork, seed).Graph
			want := scratchGravity(t, sh.steps, sh.width, sh.seqWork, sh.parWork, seed)
			where := fmt.Sprintf("steps %d width %d seed %d", sh.steps, sh.width, seed)
			if g.NumThreads() != want.NumThreads() {
				t.Fatalf("%s: NumThreads %d, want %d", where, g.NumThreads(), want.NumThreads())
			}
			for id := 0; id < want.NumThreads(); id++ {
				got, exp := g.Thread(ThreadID(id)), want.Thread(ThreadID(id))
				if got.Work != exp.Work || got.NPreds != exp.NPreds || !slices.Equal(got.Succs, exp.Succs) {
					t.Fatalf("%s thread %d: got %+v, want %+v", where, id, got, exp)
				}
			}
			if !slices.Equal(g.Roots(), want.Roots()) {
				t.Fatalf("%s: Roots %v, want %v", where, g.Roots(), want.Roots())
			}
			if !slices.Equal(g.Levels(), want.Levels()) {
				t.Fatalf("%s: Levels %v, want %v", where, g.Levels(), want.Levels())
			}
			if g.MaxWidth() != want.MaxWidth() || g.TotalWork() != want.TotalWork() || g.CriticalPath() != want.CriticalPath() {
				t.Fatalf("%s: MaxWidth/TotalWork/CriticalPath %d/%v/%v, want %d/%v/%v", where,
					g.MaxWidth(), g.TotalWork(), g.CriticalPath(), want.MaxWidth(), want.TotalWork(), want.CriticalPath())
			}
			if first == nil {
				first = g
			} else if &g.succs[0] != &first.succs[0] {
				t.Fatalf("%s: successor rows not shared with the shape's first seed", where)
			}
		}
	}
}

// TestCachedGraphBuildsOnce races many goroutines on one uncached key: all
// must get the same *Graph from a single build.
func TestCachedGraphBuildsOnce(t *testing.T) {
	key := graphKey{kind: "test", seed: freshGraphSeed.Add(1)}
	var builds atomic.Int32
	const callers = 32
	got := make([]*Graph, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = cachedGraph(key, func() *Graph {
				builds.Add(1)
				return chain(64, simtime.Millisecond)
			})
		}()
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("caller %d got graph %p, caller 0 got %p", i, g, got[0])
		}
	}
}

// TestCachedGraphPanicRepeats checks a build that panics makes every
// caller of its key panic, never return a nil graph.
func TestCachedGraphPanicRepeats(t *testing.T) {
	key := graphKey{kind: "test", seed: freshGraphSeed.Add(1)}
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d: no panic", i)
				}
			}()
			cachedGraph(key, func() *Graph { panic("bad graph") })
		}()
	}
}

// BenchmarkGraphBuild builds GRAVITY at fast and paper scale with a fresh
// jitter seed each iteration, so every iteration pays a full build.
func BenchmarkGraphBuild(b *testing.B) {
	for _, bc := range []struct {
		name  string
		steps int
	}{{"fast", 7}, {"paper", gravitySteps}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				GravitySized(bc.steps, gravityWidth, gravitySeqWork, gravityWork, freshGraphSeed.Add(1))
			}
		})
	}
}
