package obs

import (
	"context"
	"math/bits"
	"reflect"
	"sync"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	cases := []uint64{0, 1, 2, 3, 4, 1023, 1024, 1 << 40, ^uint64(0)}
	for _, v := range cases {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(cases)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(cases))
	}
	var wantSum uint64
	for _, v := range cases {
		wantSum += v
		i := bits.Len64(v)
		if s.Counts[i] == 0 {
			t.Errorf("value %d landed outside bucket %d", v, i)
		}
		if v > BucketBound(i) {
			t.Errorf("value %d exceeds BucketBound(%d) = %d", v, i, BucketBound(i))
		}
		if i > 0 && v <= BucketBound(i-1) {
			t.Errorf("value %d should be in an earlier bucket than %d", v, i)
		}
	}
	if s.Sum != wantSum {
		t.Fatalf("Sum = %d, want %d", s.Sum, wantSum)
	}
	if got := s.Counts[0]; got != 1 {
		t.Fatalf("zero bucket = %d, want 1", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const G, N = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < N; i++ {
				h.Observe(uint64(g*N + i))
			}
		}(g)
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != G*N {
		t.Fatalf("Count = %d, want %d", s.Count, G*N)
	}
}

func TestSimStatsMerge(t *testing.T) {
	a := SimStats{Runs: 1, Events: 10, EventqPeak: 7, Reallocations: 3, PACharges: 2, PNACharges: 1, PenaltyNs: 50, InvalLines: 1.5}
	b := SimStats{Runs: 2, Events: 5, EventqPeak: 3, Reallocations: 1, Migrations: 1, PNACharges: 1, PenaltyNs: 25, InvalLines: 0.5}
	var m SimStats
	m.Merge(a)
	m.Merge(b)
	want := SimStats{Runs: 3, Events: 15, EventqPeak: 7, Reallocations: 4, Migrations: 1,
		PACharges: 2, PNACharges: 2, PenaltyNs: 75, InvalLines: 2}
	if m != want {
		t.Fatalf("Merge = %+v, want %+v", m, want)
	}
}

func TestCampaignStatsSnapshot(t *testing.T) {
	// Two cells: the first runs two policies, the second one. Cells
	// counts the cells folded in, not the runs.
	a, b := NewCampaignStats(), NewCampaignStats()
	a.Add("Equipartition", SimStats{Runs: 1, Reallocations: 4})
	a.Add("Affinity", SimStats{Runs: 1, Reallocations: 2})
	b.Add("Equipartition", SimStats{Runs: 1, Reallocations: 6})
	if s := a.Snapshot(); s.Cells != 0 || s.Total.Runs != 2 {
		t.Fatalf("cell snapshot = %+v", s)
	}
	c := NewCampaignStats()
	c.AddCell(a)
	c.AddCell(b)
	s := c.Snapshot()
	if s.Cells != 2 || s.Total.Runs != 3 || s.Total.Reallocations != 12 {
		t.Fatalf("snapshot = %+v", s)
	}
	if !reflect.DeepEqual(s.PolicyOrder, []string{"Affinity", "Equipartition"}) {
		t.Fatalf("PolicyOrder = %v", s.PolicyOrder)
	}
	if s.PerPolicy["Equipartition"].Reallocations != 10 {
		t.Fatalf("per-policy = %+v", s.PerPolicy)
	}
	// nil receivers are inert so call sites need no guards.
	var nilC *CampaignStats
	nilC.Add("x", SimStats{Runs: 1})
	nilC.AddCell(a)
	c.AddCell(nil)
	if got := nilC.Snapshot(); got.Cells != 0 {
		t.Fatalf("nil snapshot = %+v", got)
	}
}

func TestContextPlumbing(t *testing.T) {
	if got := CollectorFrom(context.Background()); got != nil {
		t.Fatalf("empty context yielded collector %p", got)
	}
	c := NewCampaignStats()
	ctx := WithCollector(context.Background(), c)
	if got := CollectorFrom(ctx); got != c {
		t.Fatalf("round trip failed: %p != %p", got, c)
	}
	if ctx2 := WithCollector(context.Background(), nil); CollectorFrom(ctx2) != nil {
		t.Fatal("nil collector should not be stored")
	}
}
