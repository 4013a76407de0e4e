package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
)

// The campaign runner's core guarantee: results are a pure function of the
// options, never of the worker count or of goroutine completion order. Each
// campaign below runs once sequentially and once on eight workers (on a grid
// much larger than eight cells, so work genuinely interleaves) and the
// outputs must match bitwise — reflect.DeepEqual over float64s tolerates no
// ULP of drift.

// determinismParams is a fast campaign with a short Table-1 budget.
func determinismParams(workers int) CampaignParams {
	return CampaignParams{Fast: true, BudgetSec: 2, Workers: workers}
}

// mustRun executes one campaign through Run or fails the test.
func mustRun(t *testing.T, ctx context.Context, kind string, p CampaignParams) any {
	t.Helper()
	res, err := Run(ctx, kind, p)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", kind, p.Workers, err)
	}
	return res
}

func TestCompareDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) any {
		t.Helper()
		p := determinismParams(workers)
		// Three replications: a cell whose order of folding them changed
		// with the worker count would move a float sum.
		p.Replications = 3
		p.Policies = []string{"Equipartition", "Dyn-Aff"}
		return mustRun(t, context.Background(), "compare", p)
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Fatal("compare results differ between Workers=1 and Workers=8")
	}
}

func TestFutureScenariosDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) map[ScenarioKey]model.Scenario {
		t.Helper()
		p := determinismParams(workers)
		p.Policies = []string{"Equipartition", "Dyn-Aff"}
		cmp := mustRun(t, context.Background(), "compare", p).(CompareCampaignResult)
		t1 := mustRun(t, context.Background(), "table1", determinismParams(workers)).(Table1CampaignResult)
		scen, err := FutureScenarios(cmp, t1.Table1())
		if err != nil {
			t.Fatalf("workers=%d: scenarios: %v", workers, err)
		}
		return scen
	}
	seq, par := run(1), run(8)
	if len(seq) == 0 {
		t.Fatal("no scenarios extracted")
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("FutureScenarios outputs differ between Workers=1 and Workers=8")
	}
}

func TestFutureSimulatedDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) any {
		t.Helper()
		p := determinismParams(workers)
		p.Mix, p.Policies, p.Products = 5, []string{"Dyn-Aff"}, []float64{1, 4}
		return mustRun(t, context.Background(), "futuresim", p)
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Fatal("futuresim results differ between Workers=1 and Workers=8")
	}
}

func TestCharacterizeDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) any {
		t.Helper()
		return mustRun(t, context.Background(), "characterize", determinismParams(workers))
	}
	if seq, par := run(1), run(8); !reflect.DeepEqual(seq, par) {
		t.Fatal("characterize results differ between Workers=1 and Workers=8")
	}
}

// TestSimStatsDeterministicAcrossWorkers extends the worker-count
// invariance to the out-of-band instrumentation: the SimStats folded into
// a context's collector while Run executes cells — totals, per-policy
// breakdown, cell count, even the eventq high-water mark — must be
// identical whether cells ran sequentially or on eight workers. Some
// folded quantities are float sums (InvalLines), whose totals depend on
// association order; they are worker-invariant because Run collects each
// cell separately and folds the per-cell collectors in grid order. The
// test pins it.
func TestSimStatsDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		kind     string
		policies []string
		products []float64
		// cells counts each policy label's cells in the plan; every cell
		// folds one run per replication. nil skips the check (table1 has
		// no replications).
		cells map[string]uint64
	}{
		{kind: "compare", policies: []string{"Equipartition", "Dyn-Aff"},
			cells: map[string]uint64{"Equipartition": 6, "Dyn-Aff": 6}},
		{kind: "table1"},
		{kind: "futuresim", policies: []string{"Dyn-Aff"}, products: []float64{1, 4},
			cells: map[string]uint64{"Equipartition": 2, "Dyn-Aff": 2}},
		{kind: "relatedwork",
			cells: map[string]uint64{"TimeShare-RR": 1, "TimeShare-Aff": 1, "Dynamic": 1, "Dyn-Aff": 1}},
	}
	for _, tc := range cases {
		run := func(workers int) obs.CampaignSnapshot {
			t.Helper()
			stats := obs.NewCampaignStats()
			ctx := obs.WithCollector(context.Background(), stats)
			p := determinismParams(workers)
			p.Policies, p.Products = tc.policies, tc.products
			mustRun(t, ctx, tc.kind, p)
			return stats.Snapshot()
		}
		seq, par := run(1), run(8)
		if seq.Cells == 0 || seq.Total.Runs == 0 || seq.Total.Reallocations == 0 {
			t.Fatalf("%s: collector stayed empty: %+v", tc.kind, seq.Total)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: SimStats differ between Workers=1 and Workers=8:\nseq %+v\npar %+v", tc.kind, seq, par)
		}
		if tc.cells == nil {
			continue
		}
		reps := uint64(mustNormalize(t, tc.kind, determinismParams(1)).Replications)
		if len(seq.PerPolicy) != len(tc.cells) {
			t.Errorf("%s: stats under %v, want one label per policy %v", tc.kind, seq.PolicyOrder, tc.cells)
		}
		for pol, cells := range tc.cells {
			if got := seq.PerPolicy[pol].Runs; got != cells*reps {
				t.Errorf("%s: %s folded %d runs, want %d cells x %d reps", tc.kind, pol, got, cells, reps)
			}
		}
	}
}

func TestValidateRejectsNegativeWorkers(t *testing.T) {
	for _, c := range Campaigns() {
		if _, err := c.Normalize(CampaignParams{Fast: true, Workers: -1}); err == nil {
			t.Errorf("%s: Workers=-1 accepted", c.Kind)
		}
	}
}

func TestCompareCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := determinismParams(4)
	p.Mix, p.Policies = 1, []string{"Equipartition"}
	if _, err := Run(ctx, "compare", p); err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
}
