package workload

import (
	"fmt"

	"repro/internal/memtrace"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// App couples a thread dependence graph with the application's memory
// reference behaviour. It is the static description of a program; a Job is
// one executing instance.
type App struct {
	// Name identifies the application (MVA, MATRIX, GRAVITY, or custom).
	Name string
	// Graph is the thread dependence DAG.
	Graph *Graph
	// Pattern describes the program's cache reference behaviour.
	Pattern memtrace.Pattern
	// SharedFrac is the fraction of the lines a task touches that are
	// written shared data: under the Symmetry's invalidation-based
	// coherency protocol, writing them invalidates any copies the job's
	// other tasks hold in their processors' caches. Zero disables the
	// effect.
	SharedFrac float64
}

// MaxParallelism returns the largest number of processors the app can use
// at any point — the cap used by Equipartition's allocation-number
// computation.
func (a App) MaxParallelism() int { return a.Graph.MaxWidth() }

// Validate checks the app for consistency.
func (a App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("workload: app has no name")
	}
	if a.Graph == nil || a.Graph.NumThreads() == 0 {
		return fmt.Errorf("workload: app %s has no graph", a.Name)
	}
	if a.SharedFrac < 0 || a.SharedFrac > 1 {
		return fmt.Errorf("workload: app %s SharedFrac %v outside [0,1]", a.Name, a.SharedFrac)
	}
	return a.Pattern.Validate()
}

// The default application scales. Thread grain sizes are chosen so that the
// applications' isolated 16-processor elapsed times and average demands are
// in the same regime as the paper's Figures 2–4 (tens of seconds, demands
// between ~6 and 16), producing the same scheduling dynamics: reallocation
// intervals of a few hundred milliseconds under the Dynamic policies
// (Table 3 reports 218–445 ms).
const (
	mvaGridSize    = 24
	mvaThreadWork  = 180 * simtime.Millisecond
	matrixBlocks   = 22 // 22x22 output blocks = 484 threads
	matrixWork     = 850 * simtime.Millisecond
	gravitySteps   = 28
	gravitySeqWork = 200 * simtime.Millisecond
	gravityPhases  = 4
	gravityWidth   = 128
	gravityWork    = 20 * simtime.Millisecond
)

// MVA builds the paper's first application: a dynamic-programming
// ("wave front") computation whose parallelism slowly grows and then slowly
// decreases. Thread (i,j) of an n×n grid depends on (i-1,j) and (i,j-1).
func MVA() App {
	return MVASized(mvaGridSize, mvaThreadWork)
}

// MVASized builds an MVA instance with an n×n grid and the given per-thread
// work.
func MVASized(n int, work simtime.Duration) App {
	g := cachedGraph(graphKey{kind: "mva", a: n, w1: int64(work)}, func() *Graph {
		var b GraphBuilder
		b.Grow(n*n, 2*n*(n-1))
		ids := make([][]ThreadID, n)
		for i := 0; i < n; i++ {
			ids[i] = make([]ThreadID, n)
			for j := 0; j < n; j++ {
				ids[i][j] = b.AddThread(work)
				if i > 0 {
					b.AddDep(ids[i-1][j], ids[i][j])
				}
				if j > 0 {
					b.AddDep(ids[i][j-1], ids[i][j])
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			panic(err) // static construction cannot fail
		}
		return g
	})
	// Wavefront cells share row/column boundaries with neighbours.
	return App{Name: "MVA", Graph: g, Pattern: memtrace.MVAPattern(), SharedFrac: 0.03}
}

// Matrix builds the paper's second application: a blocked parallel matrix
// multiply with massive, constant parallelism — one thread per output
// block, all independent, joined by a final reduction thread.
func Matrix() App {
	return MatrixSized(matrixBlocks, matrixWork)
}

// MatrixSized builds a MATRIX instance computing blocks×blocks output
// blocks with the given per-block work.
func MatrixSized(blocks int, work simtime.Duration) App {
	g := cachedGraph(graphKey{kind: "matrix", a: blocks, w1: int64(work)}, func() *Graph {
		var b GraphBuilder
		b.Grow(blocks*blocks+1, blocks*blocks)
		join := simtime.Duration(50 * simtime.Millisecond)
		sink := b.AddThread(join)
		for i := 0; i < blocks*blocks; i++ {
			id := b.AddThread(work)
			b.AddDep(id, sink)
		}
		g, err := b.Build()
		if err != nil {
			panic(err)
		}
		return g
	})
	// Output blocks are disjoint; only reduction results are written
	// shared.
	return App{Name: "MATRIX", Graph: g, Pattern: memtrace.MatrixPattern(), SharedFrac: 0.005}
}

// Gravity builds the paper's third application: the Barnes-Hut clustering
// algorithm. Each simulated time step repeats five phases — one sequential,
// four parallel — with a barrier (parallelism dropping to one) between the
// parallel phases. Thread execution times differ per phase and within some
// phases, which GravitySized models with seeded multiplicative jitter.
func Gravity(seed uint64) App {
	return GravitySized(gravitySteps, gravityWidth, gravitySeqWork, gravityWork, seed)
}

// GravitySized builds a GRAVITY instance with the given number of time
// steps, per-phase parallel width, sequential-phase work, and mean parallel
// thread work.
//
// The dependence structure depends only on (steps, width); the seed
// changes only the parallel threads' work. So the structure is built once
// per shape and cached under its own key, and each seed's graph shares
// its rows, adding only its own work and level totals.
func GravitySized(steps, width int, seqWork, parWork simtime.Duration, seed uint64) App {
	// The jitter seed is part of the cache key: distinct seeds yield
	// distinct thread-time distributions.
	key := graphKey{kind: "gravity", a: steps, b: width, w1: int64(seqWork), w2: int64(parWork), seed: seed}
	g := cachedGraph(key, func() *Graph {
		shape := cachedGraph(graphKey{kind: "gravity-shape", a: steps, b: width}, func() *Graph {
			var b GraphBuilder
			gravityThreads(&b, steps, width, seqWork, parWork, seed, true)
			g, err := b.Build()
			if err != nil {
				panic(err)
			}
			return g
		})
		var b GraphBuilder
		gravityThreads(&b, steps, width, seqWork, parWork, seed, false)
		return shape.withWork(b.work)
	})
	// Body updates and tree rebuilds write data every task reads.
	return App{Name: "GRAVITY", Graph: g, Pattern: memtrace.GravityPattern(), SharedFrac: 0.08}
}

// gravityThreads adds a GRAVITY graph's threads to b in thread-ID order,
// with their seeded work, and its dependence edges when edges is set. It
// is the one place that order is written: each step is a sequential
// thread (the tree build), then per phase a barrier and the phase's width
// parallel threads. Each parallel phase's mean varies, and threads within
// a phase vary around it (synchronization delays in critical sections).
func gravityThreads(b *GraphBuilder, steps, width int, seqWork, parWork simtime.Duration, seed uint64, edges bool) {
	rng := xrand.New(seed, 0xc0ffee)
	nEdges := 0
	if edges {
		nEdges = steps*2*gravityPhases*width + steps - 1
	}
	b.Grow(steps*(1+gravityPhases*(width+1)), nEdges)
	var prevBarrier ThreadID = -1
	for s := 0; s < steps; s++ {
		seq := b.AddThread(seqWork)
		if edges && prevBarrier >= 0 {
			b.AddDep(prevBarrier, seq)
		}
		join := seq
		for ph := 0; ph < gravityPhases; ph++ {
			phaseScale := 0.6 + 0.2*float64(ph)
			barrier := b.AddThread(10 * simtime.Millisecond)
			for w := 0; w < width; w++ {
				jitter := 0.75 + rng.Float64()/2 // uniform [0.75, 1.25)
				id := b.AddThread(parWork.Scale(phaseScale * jitter))
				if edges {
					b.AddDep(join, id)
					b.AddDep(id, barrier)
				}
			}
			join = barrier
		}
		prevBarrier = join
	}
}

// AppByName builds a default-sized application by paper name. GRAVITY
// instances use the provided seed for thread-time jitter.
func AppByName(name string, seed uint64) (App, error) {
	switch name {
	case "MVA":
		return MVA(), nil
	case "MATRIX", "MAT":
		return Matrix(), nil
	case "GRAVITY", "GRAV":
		return Gravity(seed), nil
	}
	return App{}, fmt.Errorf("workload: unknown application %q", name)
}
