// Package workload models the parallel programs the paper schedules: jobs
// composed of user-level threads organized in a thread dependence graph
// (the paper's Figures 2–4), executed by a smaller set of kernel-schedulable
// tasks, plus the six multiprogrammed workload mixes of Table 2.
package workload

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/simtime"
)

// ThreadID identifies a thread within one job's dependence graph.
type ThreadID int

// Thread is one node of a dependence graph: a unit of computation that
// becomes runnable when all of its predecessors have completed.
type Thread struct {
	// Work is the thread's pure compute demand on the baseline machine.
	Work simtime.Duration
	// Succs are the threads that depend on this one, in AddDep order.
	Succs []ThreadID
	// NPreds is the number of predecessor threads.
	NPreds int
}

// Level is one rank of a graph under level-synchronous execution: Width
// threads jointly holding Work of baseline compute. Level k contains the
// threads whose predecessors all complete in levels < k, which is how the
// paper's parallelism figures count runnable threads.
type Level struct {
	Width int
	Work  simtime.Duration
}

// Graph is an immutable thread dependence DAG. Build one with a
// GraphBuilder and share it across job instances.
//
// The graph is stored as pointer-free compressed sparse rows: thread i's
// successors are succs[off[i]:off[i+1]], in AddDep order. Memoized graphs
// are retained for the life of the process, so a layout the garbage
// collector need not scan keeps them cheap to hold.
type Graph struct {
	work   []simtime.Duration
	npreds []int32
	off    []int32
	succs  []ThreadID
	roots  []ThreadID
	// order lists every thread level by level, as Kahn's algorithm
	// reached it: levels[k]'s threads follow levels[:k]'s. It depends only
	// on the structure, so graphs that share rows share it too.
	order []ThreadID
	// levels is the level-synchronous execution profile, computed once by
	// Build.
	levels []Level
	// totalWork is the sum of all thread work.
	totalWork simtime.Duration
	// maxWidth is the widest level.
	maxWidth int
}

// GraphBuilder accumulates threads and edges for a Graph.
type GraphBuilder struct {
	work  []simtime.Duration
	edges [][2]ThreadID
}

// Grow preallocates room for threads more threads and edges more edges.
func (b *GraphBuilder) Grow(threads, edges int) {
	b.work = slices.Grow(b.work, threads)
	b.edges = slices.Grow(b.edges, edges)
}

// AddThread appends a thread with the given work and returns its ID.
func (b *GraphBuilder) AddThread(work simtime.Duration) ThreadID {
	if work <= 0 {
		panic(fmt.Sprintf("workload: thread work must be positive, got %v", work))
	}
	b.work = append(b.work, work)
	return ThreadID(len(b.work) - 1)
}

// AddDep records that 'to' cannot start before 'from' completes.
func (b *GraphBuilder) AddDep(from, to ThreadID) {
	b.edges = append(b.edges, [2]ThreadID{from, to})
}

// Build validates the DAG and computes its static properties. The graph
// takes over the builder's thread work (later AddThread calls append past
// it and cannot change it).
func (b *GraphBuilder) Build() (*Graph, error) {
	n := len(b.work)
	if n == 0 {
		return nil, fmt.Errorf("workload: graph has no threads")
	}
	if n >= math.MaxInt32 || len(b.edges) >= math.MaxInt32 {
		return nil, fmt.Errorf("workload: graph too large (%d threads, %d edges)", n, len(b.edges))
	}
	g := &Graph{
		work:   b.work[:n:n],
		npreds: make([]int32, n),
		off:    make([]int32, n+1),
		succs:  make([]ThreadID, len(b.edges)),
	}
	// Counting sort of the edges by source, stable so each thread's
	// successors keep AddDep order: count out-degrees into off[from+1],
	// prefix-sum into start offsets, place each edge while advancing
	// off[from] to its end, then shift the ends back into starts.
	for _, e := range b.edges {
		from, to := e[0], e[1]
		if from < 0 || int(from) >= n || to < 0 || int(to) >= n {
			return nil, fmt.Errorf("workload: edge %v out of range", e)
		}
		if from == to {
			return nil, fmt.Errorf("workload: self-edge on thread %d", from)
		}
		g.off[from+1]++
		g.npreds[to]++
	}
	for i := 1; i <= n; i++ {
		g.off[i] += g.off[i-1]
	}
	for _, e := range b.edges {
		g.succs[g.off[e[0]]] = e[1]
		g.off[e[0]]++
	}
	copy(g.off[1:], g.off[:n])
	g.off[0] = 0
	queue := make([]ThreadID, 0, n)
	for id, w := range g.work {
		if g.npreds[id] == 0 {
			queue = append(queue, ThreadID(id))
		}
		g.totalWork += w
	}
	if len(queue) == 0 {
		return nil, fmt.Errorf("workload: graph has no roots (cyclic)")
	}
	g.roots = slices.Clone(queue)
	if !g.computeLevels(queue) {
		return nil, fmt.Errorf("workload: graph contains a cycle")
	}
	return g, nil
}

// computeLevels runs Kahn's algorithm level by level from queue, which
// holds the roots and has room for every thread. It records each level's
// width and work, the widest level and the level order, and reports
// whether every thread was reached (the graph is acyclic). The queue holds
// the levels back to back: level k+1 is what level k's completions
// appended.
func (g *Graph) computeLevels(queue []ThreadID) bool {
	preds := slices.Clone(g.npreds)
	levels := make([]Level, 0, 64)
	for lo := 0; lo < len(queue); {
		hi := len(queue)
		lv := Level{Width: hi - lo}
		for _, id := range queue[lo:hi] {
			lv.Work += g.work[id]
			for _, s := range g.succsOf(id) {
				preds[s]--
				if preds[s] == 0 {
					queue = append(queue, s)
				}
			}
		}
		levels = append(levels, lv)
		g.maxWidth = max(g.maxWidth, lv.Width)
		lo = hi
	}
	g.levels = slices.Clip(levels)
	g.order = queue
	return len(queue) == len(g.work)
}

// withWork returns a graph with g's dependence structure and the given
// per-thread work, in thread-ID order. It shares g's rows and level order
// and computes only what depends on the work: each level's work and the
// total.
func (g *Graph) withWork(work []simtime.Duration) *Graph {
	ng := *g
	ng.work = work
	ng.levels = make([]Level, len(g.levels))
	ng.totalWork = 0
	order := g.order
	for i, lv := range g.levels {
		ng.levels[i].Width = lv.Width
		for _, id := range order[:lv.Width] {
			ng.levels[i].Work += work[id]
		}
		order = order[lv.Width:]
		ng.totalWork += ng.levels[i].Work
	}
	return &ng
}

// succsOf returns thread id's successors, capacity-capped so an append
// cannot write into the next thread's row.
func (g *Graph) succsOf(id ThreadID) []ThreadID {
	lo, hi := g.off[id], g.off[id+1]
	return g.succs[lo:hi:hi]
}

// NumThreads returns the thread count.
func (g *Graph) NumThreads() int { return len(g.work) }

// Thread returns thread id's immutable description. Its Succs share the
// graph's storage and must not be modified.
func (g *Graph) Thread(id ThreadID) Thread {
	return Thread{Work: g.work[id], Succs: g.succsOf(id), NPreds: int(g.npreds[id])}
}

// Roots returns the initially runnable threads.
func (g *Graph) Roots() []ThreadID { return append([]ThreadID(nil), g.roots...) }

// Levels returns the graph's level-synchronous execution profile, first
// level first. The slice is shared and must not be modified.
func (g *Graph) Levels() []Level { return g.levels }

// TotalWork returns the sum of thread compute demands.
func (g *Graph) TotalWork() simtime.Duration { return g.totalWork }

// MaxWidth returns the maximum level-synchronous parallelism.
func (g *Graph) MaxWidth() int { return g.maxWidth }

// CriticalPath returns the longest work-weighted path through the DAG: the
// minimum possible elapsed time with unlimited processors.
func (g *Graph) CriticalPath() simtime.Duration {
	// Longest path via DFS with memoization; the graph is acyclic.
	memo := make([]simtime.Duration, len(g.work))
	done := make([]bool, len(g.work))
	var longest func(id ThreadID) simtime.Duration
	longest = func(id ThreadID) simtime.Duration {
		if done[id] {
			return memo[id]
		}
		var best simtime.Duration
		for _, s := range g.succsOf(id) {
			if d := longest(s); d > best {
				best = d
			}
		}
		memo[id] = best + g.work[id]
		done[id] = true
		return memo[id]
	}
	var best simtime.Duration
	for _, r := range g.roots {
		if d := longest(r); d > best {
			best = d
		}
	}
	return best
}
