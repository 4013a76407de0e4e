package repro

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/workload"
)

// BenchmarkSchedRunAllocs measures the allocation profile of one
// scheduling run (mix #5 at test scale) — the unit of work every campaign
// cell repeats Replications times.
func BenchmarkSchedRunAllocs(b *testing.B) {
	mc := benchMachine()
	mix5, _ := workload.MixByNumber(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, _ := core.ByName("Dyn-Aff")
		apps := mix5.Apps(benchSeed)
		_, err := sched.Run(sched.Config{
			Machine: mc,
			Policy:  pol,
			Apps:    apps,
			Seed:    benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedRunnerSteadyState measures the steady-state allocation
// profile of a reused Runner: the same cell as BenchmarkSchedRunAllocs but
// with the engine substrate warmed by a first run. This is the per-run cost
// a campaign worker actually pays, and the number the bench-check gate holds
// near zero.
func BenchmarkSchedRunnerSteadyState(b *testing.B) {
	mc := benchMachine()
	mix5, _ := workload.MixByNumber(5)
	apps := mix5.Apps(benchSeed)
	cfg := sched.Config{
		Machine: mc,
		Apps:    apps,
		Seed:    benchSeed,
	}
	r := sched.NewRunner()
	run := func() {
		// Policies carry per-run state and are rebuilt each run, exactly as
		// the campaign workers do.
		pol, _ := core.ByName("Dyn-Aff")
		cfg.Policy = pol
		if _, err := r.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the substrate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkCompareCellAllocs measures one compare cell as a campaign
// runs it: mix #5 under Dyn-Aff, the fast preset's replications, run
// sequentially.
func BenchmarkCompareCellAllocs(b *testing.B) {
	plan, err := experiments.Cells("compare", experiments.CampaignParams{
		Fast: true, Mix: 5, Policies: []string{"Dyn-Aff"}, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Cells[0].Run(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComparePolicies runs the cells of the full test-scale
// comparison campaign (6 mixes x 4 policies = 24 cells of 2 replications,
// 48 simulations) through Cell.Run on GOMAXPROCS workers, so
// `go test -bench=ComparePolicies -cpu=1,4,8` sweeps the worker-pool
// width. Each cell runs its replications sequentially (plan Workers 1):
// nested fan-out would build more engines than the runner free list
// keeps. The campaign's output is bitwise identical at every width; only
// the wall clock changes.
func BenchmarkComparePolicies(b *testing.B) {
	plan, err := experiments.Cells("compare", experiments.CampaignParams{
		Fast: true, Policies: []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := parallel.ForEach(ctx, 0, len(plan.Cells), func(ctx context.Context, c int) error {
			_, err := plan.Cells[c].Run(ctx)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreshAnalyticCampaign runs a never-seen fast analytic compare
// campaign over all mixes and the default policies through experiments.Run
// at Workers 1: each iteration takes a new seed, so its GRAVITY graphs miss
// the graph cache and are built, as a fresh campaign's are in the service.
func BenchmarkFreshAnalyticCampaign(b *testing.B) {
	seed := uint64(1) << 40
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed++
		_, err := experiments.Run(ctx, "compare", experiments.CampaignParams{
			Fast: true, Engine: experiments.EngineAnalytic, Seed: seed, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunSim runs never-seen fast sim campaigns through
// experiments.Run at Workers 1, the kinds of the service benchmark's
// cold-sim workload: a compare over one mix (mix 5, and mix 4, two GRAVITY
// jobs, the workload's slowest compare and so the one that sets its median
// latency; each with the four policies that workload asks for) and a
// futuresim over two policies and five speed*cache products, whose cells
// are the simulator's hot path, and a fast table1, whose cells build six
// reference streams and replay them on the Table-1 replay cache. Each
// iteration takes a new seed, so no cell, graph or stream is reused from
// an earlier one.
func BenchmarkRunSim(b *testing.B) {
	for _, bc := range []struct {
		name, kind string
		params     experiments.CampaignParams
	}{
		{"compare", "compare", experiments.CampaignParams{Fast: true, Mix: 5,
			Policies: []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-NoPri"}}},
		{"compare-mix4", "compare", experiments.CampaignParams{Fast: true, Mix: 4,
			Policies: []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-NoPri"}}},
		{"futuresim", "futuresim", experiments.CampaignParams{Fast: true,
			Policies: []string{"Dynamic", "Dyn-Aff"}, Products: []float64{1, 16, 64, 256, 1024}}},
		{"table1", "table1", experiments.CampaignParams{Fast: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			seed := uint64(1) << 41
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seed++
				p := bc.params
				p.Seed, p.Workers = seed, 1
				if _, err := experiments.Run(ctx, bc.kind, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
