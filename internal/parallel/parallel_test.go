package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != 1 {
		t.Errorf("Workers(-3) = %d, want 1", got)
	}
}

func TestForEachCoversAllCells(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 33} {
		const n = 100
		var hits [n]atomic.Int32
		err := ForEach(context.Background(), workers, n, func(_ context.Context, i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: cell %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForEachFirstErrorWins(t *testing.T) {
	// Whichever worker count is used, the reported error must be the
	// lowest-indexed one, as in a sequential loop.
	for _, workers := range []int{1, 2, 8} {
		err := ForEach(context.Background(), workers, 50, func(_ context.Context, i int) error {
			if i == 7 || i == 30 {
				return fmt.Errorf("cell %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "cell 7 failed" {
			t.Errorf("workers=%d: err = %v, want cell 7 failed", workers, err)
		}
	}
}

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := ForEach(ctx, 4, 10, func(context.Context, int) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("cell ran after cancellation")
	}
}

func TestForEachErrorCancelsRemaining(t *testing.T) {
	// After the failure is observed, pending cells must see a cancelled
	// context and be skipped.
	var started atomic.Int32
	err := ForEach(context.Background(), 2, 1000, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return errors.New("boom")
		}
		// Give the failure time to propagate.
		time.Sleep(time.Millisecond)
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if n := started.Load(); n > 100 {
		t.Errorf("%d cells started after failure, expected early cutoff", n)
	}
}

func TestForEachRealErrorBeatsSiblingCancellation(t *testing.T) {
	// Cell 0 blocks until the fan-out cancels it and then reports the
	// cancellation, as a nested ForEach or a context-aware cell would;
	// cell 1 fails for a real reason. The real error must win even though
	// the cancelled cell has the lower index.
	for _, workers := range []int{2, 8} {
		err := ForEach(context.Background(), workers, 2, func(ctx context.Context, i int) error {
			if i == 0 {
				<-ctx.Done()
				return ctx.Err()
			}
			return errors.New("cell 1: deadlock")
		})
		if err == nil || err.Error() != "cell 1: deadlock" {
			t.Errorf("workers=%d: err = %v, want the real failure", workers, err)
		}
	}
}

func TestForEachPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 10, func(_ context.Context, i int) error {
			if i == 3 {
				panic("kaboom")
			}
			return nil
		})
		if err == nil || err.Error() != "parallel: cell 3 panicked: kaboom" {
			t.Errorf("workers=%d: err = %v", workers, err)
		}
	}
}

func TestCellSeedDeterministicAndDistinct(t *testing.T) {
	a := CellSeed(1, 2, 3, 4)
	if b := CellSeed(1, 2, 3, 4); b != a {
		t.Fatalf("CellSeed not deterministic: %x vs %x", a, b)
	}
	seen := map[uint64]string{}
	for mix := uint64(0); mix < 8; mix++ {
		for pol := uint64(0); pol < 8; pol++ {
			for rep := uint64(0); rep < 8; rep++ {
				s := CellSeed(1, mix, pol, rep)
				key := fmt.Sprintf("%d/%d/%d", mix, pol, rep)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: %s and %s both map to %x", prev, key, s)
				}
				seen[s] = key
			}
		}
	}
	if CellSeed(1, 2) == CellSeed(2, 1) {
		t.Error("CellSeed insensitive to coordinate/root swap")
	}
	if CellSeed(1) == CellSeed(1, 0) {
		t.Error("CellSeed insensitive to coordinate count")
	}
}

// TestForEachSequentialFastPathStopsEarly pins the workers=1 contract: no
// cell after a failing one runs.
func TestForEachSequentialFastPathStopsEarly(t *testing.T) {
	var last int
	err := ForEach(context.Background(), 1, 10, func(_ context.Context, i int) error {
		last = i
		if i == 4 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil || last != 4 {
		t.Fatalf("err=%v last=%d", err, last)
	}
}

func TestFoldVisitsInIndexOrder(t *testing.T) {
	cells := []int{10, 20, 30, 40}
	var order []int
	sum := 0
	Fold(cells, func(i, c int) {
		order = append(order, i)
		sum += c
	})
	if sum != 100 {
		t.Fatalf("sum = %d, want 100", sum)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("visit order %v not ascending", order)
		}
	}
}
