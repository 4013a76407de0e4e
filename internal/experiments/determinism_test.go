package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// The campaign runner's core guarantee: results are a pure function of the
// options, never of the worker count or of goroutine completion order. Each
// campaign below runs once sequentially and once on eight workers (on a grid
// much larger than eight cells, so work genuinely interleaves) and the
// outputs must match bitwise — reflect.DeepEqual over float64s tolerates no
// ULP of drift.

func determinismOpts() Options {
	o := FastOptions()
	o.MeasureBudget = 2 * simtime.Second
	return o
}

func TestComparePoliciesDeterministicAcrossWorkers(t *testing.T) {
	mixes := workload.Mixes()[:3]
	policies := []string{"Equipartition", "Dyn-Aff"}
	run := func(workers int) *CompareResult {
		t.Helper()
		o := determinismOpts()
		o.Workers = workers
		cr, err := ComparePoliciesCtx(context.Background(), o, mixes, policies)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return cr
	}
	seq, par := run(1), run(8)
	if !reflect.DeepEqual(seq.Summaries, par.Summaries) {
		t.Fatal("ComparePolicies summaries differ between Workers=1 and Workers=8")
	}
}

// determinismParams is determinismOpts on the wire.
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

func TestFutureScenariosDeterministicAcrossWorkers(t *testing.T) {
	mixes := workload.Mixes()[:2]
	policies := []string{"Equipartition", "Dyn-Aff"}
	run := func(workers int) map[ScenarioKey]interface{} {
		t.Helper()
		o := determinismOpts()
		o.Workers = workers
		cr, err := ComparePoliciesCtx(context.Background(), o, mixes, policies)
		if err != nil {
			t.Fatalf("workers=%d: compare: %v", workers, err)
		}
		t1 := mustRun(t, context.Background(), "table1", determinismParams(workers)).(Table1CampaignResult)
		scen, err := FutureScenarios(cr, t1.Table1())
		if err != nil {
			t.Fatalf("workers=%d: scenarios: %v", workers, err)
		}
		out := make(map[ScenarioKey]interface{}, len(scen))
		for k, v := range scen {
			out[k] = v
		}
		return out
	}
	seq, par := run(1), run(8)
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
	run := func(workers int) obs.CampaignSnapshot {
		t.Helper()
		stats := obs.NewCampaignStats()
		ctx := obs.WithCollector(context.Background(), stats)
		p := determinismParams(workers)
		p.Policies = []string{"Equipartition", "Dyn-Aff"}
		mustRun(t, ctx, "compare", p)
		mustRun(t, ctx, "table1", p)
		return stats.Snapshot()
	}
	seq, par := run(1), run(8)
	if seq.Cells == 0 || seq.Total.Runs == 0 || seq.Total.Reallocations == 0 {
		t.Fatalf("collector stayed empty: %+v", seq.Total)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("SimStats differ between Workers=1 and Workers=8:\nseq %+v\npar %+v", seq, par)
	}
}

func TestValidateRejectsNegativeWorkers(t *testing.T) {
	o := FastOptions()
	o.Workers = -1
	if err := o.Validate(); err == nil {
		t.Fatal("Workers=-1 accepted")
	}
}

func TestComparePoliciesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := determinismOpts()
	o.Workers = 4
	if _, err := ComparePoliciesCtx(ctx, o, workload.Mixes()[:1], []string{"Equipartition"}); err == nil {
		t.Fatal("cancelled campaign returned no error")
	}
}
