package experiments

import (
	"runtime"
	"sync"

	"repro/internal/sched"
)

// runners recycles sched.Runner engines across simulation cells: each
// worker checks one out per cell and returns it afterwards, so the event
// queue, cache model and their internal buffers are allocated once per
// worker rather than once per run. Reusing a Runner is bitwise equivalent
// to building a fresh engine (see the sched package's
// TestRunnerReuseBitwiseIdentical), so recycling cannot perturb results.
//
// It is a mutex-guarded free list rather than a sync.Pool because a
// garbage collection empties a pool: every cell after one then rebuilds
// its engine. It keeps at most GOMAXPROCS idle runners. More cells than
// that can run at once (affinityd runs JobWorkers campaigns of CellWorkers
// cells each), and a runner returned to a full list is dropped, to be
// rebuilt when as many cells run together again. That churn is the price
// of not keeping the peak number of runners live for good, as an uncapped
// list would.
var runners struct {
	mu   sync.Mutex
	free []*sched.Runner
}

// getRunner checks out an idle Runner, or builds one.
func getRunner() *sched.Runner {
	runners.mu.Lock()
	defer runners.mu.Unlock()
	n := len(runners.free)
	if n == 0 {
		return sched.NewRunner()
	}
	r := runners.free[n-1]
	runners.free[n-1] = nil
	runners.free = runners.free[:n-1]
	return r
}

// putRunner returns r to the free list, or drops it when the list is full.
func putRunner(r *sched.Runner) {
	runners.mu.Lock()
	defer runners.mu.Unlock()
	if len(runners.free) < runtime.GOMAXPROCS(0) {
		runners.free = append(runners.free, r)
	}
}

// runSim executes one simulation cell on a recycled Runner.
func runSim(cfg sched.Config) (sched.Result, error) {
	r := getRunner()
	defer putRunner(r)
	return r.Run(cfg)
}
