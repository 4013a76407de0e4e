// Package parallel is the experiment layer's campaign runner: a bounded
// worker pool that fans independent simulation cells out across CPUs while
// keeping campaign results bitwise identical to a sequential run.
//
// The experiment drivers (internal/experiments) decompose a campaign into a
// flat grid of cells — (mix × policy × replication) for the scheduling
// comparison, (scenario × point) for the future-machine sweeps — and every
// cell is an independent simulation. Two properties make the fan-out safe:
//
//   - Determinism by construction, not by ordering. Each cell derives its
//     own random seed from the campaign root seed and the cell's grid
//     coordinates (CellSeed, a SplitMix64 mix), and writes its result into
//     a dedicated slot of a pre-sized results slice. Worker count and
//     completion order therefore cannot perturb any output bit.
//   - Isolation. Cells share no mutable state: policies are constructed
//     per cell (alloc.Policy values carry per-run state), and the sched
//     package's reusable runners are pooled per worker, never shared.
//
// The pool size defaults to runtime.GOMAXPROCS(0) and is bounded by the
// cell count; ForEach degenerates to a plain loop for a single worker, so
// sequential behaviour is exactly the historical code path.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n itself when positive, the
// runtime's GOMAXPROCS when n is zero. Negative counts are invalid and
// resolve to 1 (CampaignParams normalization rejects them upstream).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if n < 0 {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a pool of at most
// workers goroutines (resolved via Workers). It returns the error of the
// lowest-numbered failing cell — the same error a sequential loop that
// stops at the first failure would return — or ctx's error if the context
// was cancelled before the work completed.
//
// When a cell fails, the context passed to the remaining cells is
// cancelled so long-running simulations can abort early; cells that have
// already started may still run to completion. A sibling stopped by that
// cancellation reports a context error, which is a symptom rather than
// the cause, so a non-cancellation error always wins over one: among
// real failures the lowest index is returned, and a cancellation error
// only when no cell failed for a real reason. fn must confine its writes
// to per-index state (e.g. results[i]) for the fan-out to be
// deterministic.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		// Sequential fast path: no goroutines, stop at the first error.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runCell(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next    atomic.Int64 // next unclaimed cell index
		mu      sync.Mutex
		firstI  = n // lowest index failing for a real reason
		firstE  error
		cancelI = n // lowest index stopped by a context error
		cancelE error
		wg      sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if i < cancelI {
				cancelI, cancelE = i, err
			}
		} else if i < firstI {
			firstI, firstE = i, err
		}
		mu.Unlock()
		cancel()
	}
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if cctx.Err() != nil {
					return
				}
				if err := runCell(cctx, i, fn); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstE != nil {
		return firstE
	}
	if cancelE != nil {
		return cancelE
	}
	return ctx.Err()
}

// runCell invokes fn, converting a panic into an error so one corrupt cell
// cannot take down the whole campaign process with an unhelpful stack on a
// random goroutine. The cell's grid index rides as a pprof label, so CPU
// profiles of a campaign attribute samples to the cells that burned them
// even below the experiment layer's own kind/cell labels.
func runCell(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: cell %d panicked: %v", i, r)
		}
	}()
	pprof.Do(ctx, pprof.Labels("parallel_cell", strconv.Itoa(i)), func(ctx context.Context) {
		err = fn(ctx, i)
	})
	return err
}

// Fold visits every cell result in ascending index order — the one order
// that is independent of worker count and completion timing — so callers
// can merge per-cell statistics (or any other reduction where order
// matters, e.g. floating-point sums) deterministically after a ForEach
// completes. It is deliberately trivial; its value is the contract:
// reductions over fan-out results must happen here, in grid order, never
// inside the worker callbacks.
func Fold[T any](cells []T, merge func(i int, cell T)) {
	for i, c := range cells {
		merge(i, c)
	}
}

// CellSeed derives a deterministic per-cell seed from a campaign root seed
// and the cell's grid coordinates, by chaining SplitMix64 over the
// coordinates. Distinct coordinate vectors yield decorrelated seeds;
// the same (root, coords) always yields the same seed, independent of
// worker count, scheduling order, or which other cells exist.
func CellSeed(root uint64, coords ...uint64) uint64 {
	s := root
	out := splitmix64(&s)
	for _, c := range coords {
		// Spread the (typically tiny) coordinate across the word before
		// folding it in, so neighbouring grid cells mix apart.
		s = out ^ (c+1)*0xda942042e4dd58b5
		out = splitmix64(&s)
	}
	return out
}

// splitmix64 advances a SplitMix64 state and returns the next output
// (same construction as internal/xrand, duplicated to keep this package
// dependency-free).
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
