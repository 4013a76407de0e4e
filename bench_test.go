// Package repro's benchmark harness regenerates every table and figure of
// the paper's evaluation, one benchmark per exhibit (see DESIGN.md §4 for
// the experiment index). Each benchmark reports the exhibit's headline
// quantity via b.ReportMetric so the paper-vs-measured comparison in
// EXPERIMENTS.md can be refreshed from a single run:
//
//	go test -bench=. -benchmem
//
// The benchmarks run at paper machine scale (16-processor Symmetry) with a
// reduced replication count so a full sweep stays in the minutes range.
package repro

import (
	"context"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/cachemodel"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/footprint"
	"repro/internal/memtrace"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// benchOptions returns paper-scale options trimmed for benchmarking.
func benchOptions() experiments.Options {
	o := experiments.DefaultOptions()
	o.Replications = 2
	o.MeasureBudget = 10 * simtime.Second
	return o
}

// benchCampaign runs one campaign kind at the benchOptions scale.
func benchCampaign(b *testing.B, kind string) any {
	b.Helper()
	res, err := experiments.Run(context.Background(), kind, experiments.CampaignParams{Replications: 2, BudgetSec: 10})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkCharacterize regenerates Figures 2-4: the applications'
// parallelism profiles, elapsed times and average demands in isolation.
func BenchmarkCharacterize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		chars := benchCampaign(b, "characterize").(experiments.CharacterizeCampaignResult).Apps
		for _, c := range chars {
			switch c.Name {
			case "MVA":
				b.ReportMetric(c.AvgDemand, "MVA-avg-demand")
			case "MATRIX":
				b.ReportMetric(c.AvgDemand, "MATRIX-avg-demand")
			case "GRAVITY":
				b.ReportMetric(c.AvgDemand, "GRAVITY-avg-demand")
			}
		}
	}
}

// BenchmarkTable1 regenerates Table 1: P^A and P^NA for every application
// pair at Q = 25, 100 and 400 ms. Headline metrics: MVA's P^NA at the
// extremes (paper: 914 µs and 2330 µs).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1 := benchCampaign(b, "table1").(experiments.Table1CampaignResult)
		b.ReportMetric(t1.Cells["25"]["MVA"].PNAMicros, "PNA-MVA-Q25-us")
		b.ReportMetric(t1.Cells["400"]["MVA"].PNAMicros, "PNA-MVA-Q400-us")
		b.ReportMetric(t1.Cells["400"]["GRAVITY"].PNAMicros, "PNA-GRAV-Q400-us")
		b.ReportMetric(t1.Cells["400"]["MATRIX"].PAMicros["MVA"], "PA-MAT-vs-MVA-Q400-us")
	}
}

// compareCampaign runs the Section-6 comparison at the benchOptions scale,
// over all six mixes (mix 0) or one.
func compareCampaign(b *testing.B, mix int, policies []string) experiments.CompareCampaignResult {
	b.Helper()
	res, err := experiments.Run(context.Background(), "compare",
		experiments.CampaignParams{Replications: 2, Mix: mix, Policies: policies})
	if err != nil {
		b.Fatal(err)
	}
	return res.(experiments.CompareCampaignResult)
}

// jobRows returns a compare result's rows for one (mix, policy) cell, in
// job order, failing if the result has none.
func jobRows(tb testing.TB, res experiments.CompareCampaignResult, mix int, policy string) []experiments.CompareCampaignRow {
	tb.Helper()
	var rows []experiments.CompareCampaignRow
	for _, row := range res.Rows {
		if row.Mix == mix && row.Policy == policy {
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		tb.Fatalf("no rows for mix #%d policy %s", mix, policy)
	}
	return rows
}

// BenchmarkFigure5 regenerates Figure 5: response times of Dynamic,
// Dyn-Aff, and Dyn-Aff-Delay relative to Equipartition over all six mixes.
// Headline metric: the mean relative response time of Dynamic (paper: < 1
// for every job).
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := compareCampaign(b, 0, []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
		var sum float64
		var n int
		var worst float64
		for _, mix := range res.Mixes {
			for _, job := range jobRows(b, res, mix, "Dynamic") {
				sum += job.RelRT
				n++
				if job.RelRT > worst {
					worst = job.RelRT
				}
			}
		}
		b.ReportMetric(sum/float64(n), "mean-relRT-Dynamic")
		b.ReportMetric(worst, "max-relRT-Dynamic")
	}
}

// BenchmarkFigure6 regenerates Figure 6: Dyn-Aff-NoPri relative to
// Equipartition. Headline metric: the spread (max − min) of the relative
// response times, which the paper shows is dramatically larger than for the
// fair policies.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := compareCampaign(b, 0, []string{"Equipartition", "Dyn-Aff-NoPri"})
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, mix := range res.Mixes {
			for _, job := range jobRows(b, res, mix, "Dyn-Aff-NoPri") {
				lo = math.Min(lo, job.RelRT)
				hi = math.Max(hi, job.RelRT)
			}
		}
		b.ReportMetric(hi-lo, "relRT-spread-NoPri")
	}
}

// BenchmarkTable3 regenerates Table 3: the influence of affinity on
// scheduling for mix #5. Headline metrics: %affinity under Dynamic vs
// Dyn-Aff (paper: 21-31% vs 54-83%) and the reallocation reduction under
// yield-delay (paper: about one third).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := compareCampaign(b, 5, []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
		grav := func(pol string) experiments.CompareCampaignRow { return jobRows(b, res, 5, pol)[1] }
		b.ReportMetric(100*grav("Dynamic").PctAffinity, "aff-pct-Dynamic-GRAV")
		b.ReportMetric(100*grav("Dyn-Aff").PctAffinity, "aff-pct-DynAff-GRAV")
		b.ReportMetric(grav("Dyn-Aff").Reallocations, "reallocs-DynAff-GRAV")
		b.ReportMetric(grav("Dyn-Aff-Delay").Reallocations, "reallocs-Delay-GRAV")
		b.ReportMetric(grav("Dyn-Aff").IntervalMs, "interval-DynAff-GRAV-ms")
	}
}

// BenchmarkTable4 regenerates Table 4: average job response times of the
// homogeneous mixes under Dyn-Aff vs Dyn-Aff-NoPri.
func BenchmarkTable4(b *testing.B) {
	policies := []string{"Equipartition", "Dyn-Aff", "Dyn-Aff-NoPri"}
	for i := 0; i < b.N; i++ {
		mean := func(res experiments.CompareCampaignResult, mix int, pol string) float64 {
			rows := jobRows(b, res, mix, pol)
			t := 0.0
			for _, row := range rows {
				t += row.MeanRTSec
			}
			return t / float64(len(rows))
		}
		mix1, mix4 := compareCampaign(b, 1, policies), compareCampaign(b, 4, policies)
		b.ReportMetric(mean(mix1, 1, "Dyn-Aff"), "mix1-DynAff-RT-s")
		b.ReportMetric(mean(mix1, 1, "Dyn-Aff-NoPri"), "mix1-NoPri-RT-s")
		b.ReportMetric(mean(mix4, 4, "Dyn-Aff"), "mix4-DynAff-RT-s")
		b.ReportMetric(mean(mix4, 4, "Dyn-Aff-NoPri"), "mix4-NoPri-RT-s")
	}
}

// BenchmarkFigure8to13 regenerates Figures 8-13: the future-machine
// extrapolation over all six mixes. Headline metrics: Dynamic's relative RT
// for mix 5's GRAVITY at product 1 and 4096, and its crossover product.
func BenchmarkFigure8to13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := compareCampaign(b, 0, []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
		t1 := benchCampaign(b, "table1").(experiments.Table1CampaignResult)
		scen, err := experiments.FutureScenarios(res, t1.Table1(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		dynamic := []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
		sweep, err := experiments.FutureSweep(scen, dynamic, 4096)
		if err != nil {
			b.Fatal(err)
		}
		charts, err := experiments.FutureCharts(sweep, dynamic)
		if err != nil {
			b.Fatal(err)
		}
		if len(charts) != 6 {
			b.Fatalf("charts = %d, want 6", len(charts))
		}
		sc := scen[experiments.ScenarioKey{Mix: 5, App: "GRAVITY"}]
		ys, err := sc.SweepProduct("Dynamic", []float64{1, 4096})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ys[0], "relRT-Dynamic-grav5-at-1")
		b.ReportMetric(ys[1], "relRT-Dynamic-grav5-at-4096")
		cross, err := sc.Crossover("Dynamic", model.Products(1<<20, 4))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cross, "crossover-Dynamic-grav5")
	}
}

// BenchmarkAblationFootprint validates the analytic footprint model used in
// the scheduler against the exact cache simulator on the warm/intervene/
// resume protocol, reporting the prediction ratio (DESIGN.md §4 calls this
// out as the central modelling substitution).
func BenchmarkAblationFootprint(b *testing.B) {
	mcCache := cache.SymmetryConfig()
	measured := memtrace.MVAPattern()
	interv := memtrace.MatrixPattern()
	const q = 200 * simtime.Millisecond
	for i := 0; i < b.N; i++ {
		c := cache.MustNew(mcCache)
		gm := memtrace.NewGenerator(measured, 0, 11)
		gi := memtrace.NewGenerator(interv, 1<<40, 13)
		runFor := func(g *memtrace.Generator, owner int, d simtime.Duration) int {
			misses := 0
			start := g.Elapsed()
			for g.Elapsed()-start < d {
				addr, _ := g.Next()
				if !c.Access(owner, addr) {
					misses++
				}
			}
			return misses
		}
		runFor(gm, 0, simtime.Second)
		resident := float64(c.Resident(0))
		runFor(gi, 1, q)
		exact := runFor(gm, 0, q)

		fp := footprint.MustNew(mcCache.Lines())
		fp.Load(0, resident)
		fp.RunSegment(1, interv, 0, q, 0)
		predicted := footprint.Segment(measured, 0, q, fp.Resident(0))
		if exact > 0 {
			b.ReportMetric(predicted/float64(exact), "model/exact-miss-ratio")
		}
	}
}

// BenchmarkTimeShareBaseline contrasts quantum-driven time sharing with the
// space-sharing policies on mix 5 — the Section-8 comparison motivating why
// this paper's affinity conclusions differ from time-sharing studies.
func BenchmarkTimeShareBaseline(b *testing.B) {
	mix5, _ := workload.MixByNumber(5)
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		run := func(pol string) *sched.Result {
			p, _ := core.ByName(pol)
			res, err := sched.Run(sched.Config{
				Machine: opts.Machine,
				Policy:  p,
				Apps:    mix5.Apps(opts.Seed),
				Seed:    opts.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			return &res
		}
		ts := run("TimeShare-RR")
		aff := run("Dyn-Aff")
		b.ReportMetric(ts.MeanResponse()/aff.MeanResponse(), "timeshare/dynaff-RT")
		// Time sharing migrates constantly: reallocations per job.
		b.ReportMetric(float64(ts.Jobs[0].Reallocations), "timeshare-reallocs-MAT")
		b.ReportMetric(ts.Jobs[0].PctAffinity()*100, "timeshare-aff-pct-MAT")
	}
}

// BenchmarkAblationExactEngine runs the same scaled-down scheduling
// experiment under the analytic footprint cache model and under full
// reference-stream replay, reporting the response-time agreement — the
// whole-system version of BenchmarkAblationFootprint.
func BenchmarkAblationExactEngine(b *testing.B) {
	apps := func() []workload.App {
		return []workload.App{
			workload.MatrixSized(6, 200*simtime.Millisecond),
			workload.GravitySized(3, 24, 50*simtime.Millisecond, 20*simtime.Millisecond, 7),
		}
	}
	mc := benchOptions().Machine
	for i := 0; i < b.N; i++ {
		run := func(kind cachemodel.Kind) sched.Result {
			pol, _ := core.ByName("Dyn-Aff")
			res, err := sched.Run(sched.Config{
				Machine: mc, Policy: pol, Apps: apps(), Seed: 1, CacheModel: kind,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		fp := run(cachemodel.KindFootprint)
		ex := run(cachemodel.KindExact)
		b.ReportMetric(fp.MeanResponse()/ex.MeanResponse(), "footprint/exact-RT")
		b.ReportMetric(fp.Jobs[1].MissLines/ex.Jobs[1].MissLines, "footprint/exact-misslines-GRAV")
	}
}

// BenchmarkAblationYieldDelay sweeps the yield-delay hold time on mix #5,
// reporting reallocations and response time per delay — the design-choice
// ablation behind Dyn-Aff-Delay's default (DESIGN.md §5).
func BenchmarkAblationYieldDelay(b *testing.B) {
	mix5, _ := workload.MixByNumber(5)
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		for _, delayMs := range []int64{0, 10, 20, 50} {
			pol := core.NewDynAffDelayD(simtime.Milliseconds(delayMs))
			res, err := sched.Run(sched.Config{
				Machine: opts.Machine,
				Policy:  pol,
				Apps:    mix5.Apps(opts.Seed),
				Seed:    opts.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			var reallocs int
			for _, j := range res.Jobs {
				reallocs += j.Reallocations
			}
			suffix := simtime.Milliseconds(delayMs).String()
			b.ReportMetric(float64(reallocs), "reallocs-delay-"+suffix)
			b.ReportMetric(res.MeanResponse(), "meanRT-s-delay-"+suffix)
		}
	}
}

// BenchmarkAblationCreditSpending compares the Dynamic policy's behaviour
// with bursty (credit-spending) jobs: the GRAVITY job's response time under
// Dynamic vs under Equipartition is the benefit the credit scheme buys
// (without it, GRAVITY cannot exceed its equal share during bursts).
func BenchmarkAblationCreditSpending(b *testing.B) {
	mix5, _ := workload.MixByNumber(5)
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		run := func(polName string) sched.Result {
			pol, _ := core.ByName(polName)
			res, err := sched.Run(sched.Config{
				Machine: opts.Machine,
				Policy:  pol,
				Apps:    mix5.Apps(opts.Seed),
				Seed:    opts.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		dyn := run("Dynamic")
		equi := run("Equipartition")
		b.ReportMetric(dyn.Jobs[1].ResponseTime.SecondsF()/equi.Jobs[1].ResponseTime.SecondsF(),
			"grav-relRT-Dynamic")
		b.ReportMetric(dyn.Jobs[1].AvgAlloc, "grav-avgalloc-Dynamic")
	}
}

// BenchmarkSharedInvalidation measures the coherency-traffic effect: mix #5
// with GRAVITY's default shared fraction versus sharing disabled.
func BenchmarkSharedInvalidation(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		run := func(shared bool) sched.Result {
			mix5, _ := workload.MixByNumber(5)
			apps := mix5.Apps(opts.Seed)
			if !shared {
				for k := range apps {
					apps[k].SharedFrac = 0
				}
			}
			pol, _ := core.ByName("Dyn-Aff")
			res, err := sched.Run(sched.Config{
				Machine: opts.Machine,
				Policy:  pol,
				Apps:    apps,
				Seed:    opts.Seed,
			})
			if err != nil {
				b.Fatal(err)
			}
			return res
		}
		with := run(true)
		without := run(false)
		b.ReportMetric(with.Jobs[1].InvalLines, "grav-inval-lines")
		b.ReportMetric(with.MeanResponse()/without.MeanResponse(), "shared/unshared-RT")
	}
}
