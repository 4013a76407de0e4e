package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/measure"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// mustNormalize normalizes p as the given kind's params.
func mustNormalize(t *testing.T, kind string, p CampaignParams) CampaignParams {
	t.Helper()
	np, err := Campaign{Kind: kind}.Normalize(p)
	if err != nil {
		t.Fatalf("%s %+v: %v", kind, p, err)
	}
	return np
}

// TestOptionsValidate pins Normalize as the one home of the shared
// knobs' defaults and bounds: the paper's defaults, the fast preset and
// explicit fields over it, and a ParamError naming the field for each
// out-of-range value. Zero is not out of range: it selects the default.
func TestOptionsValidate(t *testing.T) {
	if n := mustNormalize(t, "future", CampaignParams{}); n.Procs != 16 || n.Replications != 5 ||
		n.BudgetSec != 20 || n.AppScale != 1 || n.Seed != 1 {
		t.Errorf("defaults: %+v", n)
	}
	if n := mustNormalize(t, "future", CampaignParams{Fast: true}); n.Fast || n.Replications != 2 ||
		n.BudgetSec != 4 || n.AppScale != 4 {
		t.Errorf("fast preset: %+v", n)
	}
	if n := mustNormalize(t, "future", CampaignParams{Fast: true, Replications: 5, BudgetSec: 20}); n.Replications != 5 ||
		n.BudgetSec != 20 || n.AppScale != 4 {
		t.Errorf("fast preset under explicit reps and budget: %+v", n)
	}
	for _, tc := range []struct {
		p     CampaignParams
		field string
	}{
		{CampaignParams{Procs: -1}, "params.procs"},
		{CampaignParams{Replications: -1}, "params.reps"},
		{CampaignParams{BudgetSec: -1}, "params.budget_sec"},
		{CampaignParams{BudgetSec: 1e-12}, "params.budget_sec"}, // rounds to 0 ns
		{CampaignParams{AppScale: -1}, "params.app_scale"},
		{CampaignParams{Workers: -1}, "params.workers"},
		{CampaignParams{Engine: "bogus"}, "params.engine"},
	} {
		_, err := Campaign{Kind: "future"}.Normalize(tc.p)
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != tc.field {
			t.Errorf("%+v: err = %v, want a %s ParamError", tc.p, err, tc.field)
		}
	}
	// The kinds that measure Table 1 need a budget of at least the largest
	// Q, the bound their schema advertises; the other kinds ignore it.
	for _, kind := range []string{"table1", "future"} {
		_, err := Campaign{Kind: kind}.Normalize(CampaignParams{BudgetSec: 0.3})
		var pe *ParamError
		if !errors.As(err, &pe) || pe.Field != "params.budget_sec" || pe.Msg != "must be >= 0.4" {
			t.Errorf("%s with budget_sec 0.3: err = %v, want params.budget_sec: must be >= 0.4", kind, err)
		}
		if n := mustNormalize(t, kind, CampaignParams{BudgetSec: 0.4}); n.BudgetSec != 0.4 {
			t.Errorf("%s with budget_sec 0.4: normalized to %v", kind, n.BudgetSec)
		}
		for _, spec := range (Campaign{Kind: kind}).ParamSchema() {
			if spec.Name == "budget_sec" && (spec.Min == nil || *spec.Min != 0.4) {
				t.Errorf("%s schema: budget_sec min %v, want 0.4", kind, spec.Min)
			}
		}
	}
	mustNormalize(t, "compare", CampaignParams{BudgetSec: 0.3})
}

func TestDefaultMachineIs16ProcSymmetry(t *testing.T) {
	m := symmetry(mustNormalize(t, "compare", CampaignParams{}).Procs)
	if m.Processors != 16 {
		t.Errorf("processors = %d, want 16 (paper's experiment size)", m.Processors)
	}
	if m.Cache.SizeBytes != 64*1024 {
		t.Errorf("cache = %d, want Symmetry's 64KB", m.Cache.SizeBytes)
	}
}

func TestScaledApps(t *testing.T) {
	mix, _ := workload.MixByNumber(6)
	apps := mustNormalize(t, "compare", CampaignParams{Fast: true}).apps(mix, 1)
	if len(apps) != 3 {
		t.Fatalf("apps = %d", len(apps))
	}
	full := mustNormalize(t, "compare", CampaignParams{}).apps(mix, 1)
	for i := range apps {
		if apps[i].Graph.NumThreads() >= full[i].Graph.NumThreads() {
			t.Errorf("%s: scaled app not smaller (%d vs %d threads)",
				apps[i].Name, apps[i].Graph.NumThreads(), full[i].Graph.NumThreads())
		}
	}
}

func TestCharacterize(t *testing.T) {
	chars := mustRun(t, context.Background(), "characterize", CampaignParams{Fast: true}).(CharacterizeCampaignResult).Apps
	if len(chars) != 3 {
		t.Fatalf("characterized %d apps", len(chars))
	}
	names := map[string]bool{}
	for _, c := range chars {
		names[c.Name] = true
		if c.ElapsedSec <= 0 || c.TotalWorkSec <= 0 {
			t.Errorf("%s: non-positive times", c.Name)
		}
		if c.AvgDemand <= 0 || c.AvgDemand > 16 {
			t.Errorf("%s: avg demand %v out of range", c.Name, c.AvgDemand)
		}
		sum := 0.0
		for _, p := range c.ProfilePct {
			sum += p
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: profile sums to %v%%", c.Name, sum)
		}
	}
	for _, want := range []string{"MVA", "MATRIX", "GRAVITY"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
	// Report renderers produce non-empty output.
	var b strings.Builder
	tab := CharacterTable(chars)
	if err := tab.Write(&b); err != nil {
		t.Fatal(err)
	}
	prof := ProfileTable(chars)
	if err := prof.Write(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() == 0 {
		t.Error("empty reports")
	}
}

// fastTable1 runs the table1 campaign at the fast preset's budget.
func fastTable1(t *testing.T) Table1CampaignResult {
	t.Helper()
	return mustRun(t, context.Background(), "table1", CampaignParams{Fast: true}).(Table1CampaignResult)
}

func TestTable1SmallBudget(t *testing.T) {
	res := fastTable1(t)
	if t1 := res.Table1(); len(t1.Apps) != 3 || len(t1.Qs) != 3 || len(t1.Cells) != 3 {
		t.Fatalf("table dims: %d apps, %d qs, %d cells", len(t1.Apps), len(t1.Qs), len(t1.Cells))
	}
	tabs := Table1Report(res)
	if len(tabs) != 3 {
		t.Fatalf("reports = %d", len(tabs))
	}
	var b strings.Builder
	for _, tab := range tabs {
		if err := tab.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(b.String(), "P^NA") {
		t.Error("report missing P^NA column")
	}
}

// TestTable1ResultMatchesCampaign pins that a Table 1 built directly with
// measure.BuildTable1 converts to the table1 campaign's result byte for
// byte and records the same stats — affinitysim measure -detail relies on
// it to run the protocol once.
func TestTable1ResultMatchesCampaign(t *testing.T) {
	p := CampaignParams{Fast: true, BudgetSec: 2}
	campStats := obs.NewCampaignStats()
	want := mustRun(t, obs.WithCollector(context.Background(), campStats), "table1", p)
	np := mustNormalize(t, "table1", p)
	mc := symmetry(1)
	budget := simtime.Seconds(np.BudgetSec)
	t1, err := measure.BuildTable1(context.Background(), mc, memtrace.Patterns(), measure.DefaultQs(),
		budget, np.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	directStats := obs.NewCampaignStats()
	got := Table1Result(obs.WithCollector(context.Background(), directStats), t1, mc, budget)
	wb, err := report.CanonicalJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := report.CanonicalJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Fatalf("direct Table 1 result differs from the campaign's:\ndirect   %s\ncampaign %s", gb, wb)
	}
	if cs, ds := campStats.Snapshot(), directStats.Snapshot(); !reflect.DeepEqual(cs, ds) {
		t.Fatalf("stats differ:\ncampaign %+v\ndirect   %+v", cs, ds)
	}
}

func TestPenaltyFor(t *testing.T) {
	res := fastTable1(t)
	t1 := res.Table1()
	// The wire round trip is exact: the rebuilt ticks render back to the
	// wire's microseconds.
	if got, want := t1.Cells[400*simtime.Millisecond]["MVA"].PNA.Micros(), res.Cells["400"]["MVA"].PNAMicros; got != want {
		t.Errorf("P^NA round trip: %v µs, wire %v µs", got, want)
	}
	pa, pna := PenaltyFor(t1, "MVA", []string{"MATRIX"}, 400*simtime.Millisecond)
	if pna <= 0 || pa <= 0 {
		t.Fatalf("penalties not positive: pa=%v pna=%v", pa, pna)
	}
	if pa >= pna {
		t.Errorf("P^A %v >= P^NA %v", pa, pna)
	}
	// Nearest-Q selection picks larger penalties for larger intervals.
	_, pnaSmall := PenaltyFor(t1, "MVA", nil, 25*simtime.Millisecond)
	if pnaSmall >= pna {
		t.Errorf("P^NA at Q=25 (%v) not below Q=400 (%v)", pnaSmall, pna)
	}
	// Unknown app yields zeros, empty table yields zeros.
	if pa, pna := PenaltyFor(t1, "NOPE", nil, 0); pa != 0 || pna != 0 {
		t.Error("unknown app gave penalties")
	}
}

// The big one: the end-to-end pipeline at test scale, checking the paper's
// qualitative conclusions hold.
func TestPipelineQualitative(t *testing.T) {
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"}
	// Mixes 4 and 5, one compare campaign each. Cells are independent of
	// the rest of their grid, so the concatenated rows are exactly the
	// two-mix result.
	res := CompareCampaignResult{Policies: policies}
	for _, mix := range []int{4, 5} {
		r := mustRun(t, context.Background(), "compare",
			CampaignParams{Fast: true, Mix: mix, Policies: policies}).(CompareCampaignResult)
		res.Mixes = append(res.Mixes, r.Mixes...)
		res.Rows = append(res.Rows, r.Rows...)
	}
	relOf := func(mix int, pol string) []float64 {
		var rel []float64
		for _, row := range res.rows(mix, pol) {
			rel = append(rel, row.RelRT)
		}
		return rel
	}

	// Paper conclusion 1: dynamic policies beat (or at worst match)
	// Equipartition on mean response time.
	for _, mix := range res.Mixes {
		for _, pol := range []string{"Dynamic", "Dyn-Aff"} {
			rel := relOf(mix, pol)
			mean := 0.0
			for _, r := range rel {
				mean += r
			}
			mean /= float64(len(rel))
			if mean > 1.02 {
				t.Errorf("mix #%d %s mean relative RT %.3f > 1", mix, pol, mean)
			}
		}
	}

	// Paper conclusion 2: the dynamic variants are nearly identical today.
	relDyn, relAff := relOf(5, "Dynamic"), relOf(5, "Dyn-Aff")
	for i := range relDyn {
		diff := relDyn[i] - relAff[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.1 {
			t.Errorf("job %d: Dynamic %.3f vs Dyn-Aff %.3f differ by more than 10%%",
				i, relDyn[i], relAff[i])
		}
	}

	// Reports render.
	var b strings.Builder
	fig5, err := Figure5Report(res, []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"})
	if err != nil {
		t.Fatal(err)
	}
	if err := fig5.Write(&b); err != nil {
		t.Fatal(err)
	}
	t3, err := Table3Report(res, 5, []string{"Dynamic", "Dyn-Aff"})
	if err != nil {
		t.Fatal(err)
	}
	if err := t3.Write(&b); err != nil {
		t.Fatal(err)
	}
	t4, err := Table4Report(res, []int{4}, "Dyn-Aff", "Dyn-Aff-NoPri")
	if err != nil {
		t.Fatal(err)
	}
	if err := t4.Write(&b); err != nil {
		t.Fatal(err)
	}

	// Future extrapolation end to end.
	scen, err := FutureScenarios(res, fastTable1(t).Table1())
	if err != nil {
		t.Fatal(err)
	}
	key := ScenarioKey{Mix: 5, App: "GRAVITY"}
	sc, ok := scen[key]
	if !ok {
		t.Fatalf("no scenario %v; have %v", key, len(scen))
	}
	// Paper conclusion 3: Dynamic's relative RT rises with the
	// speed×cache product.
	ys, err := sc.SweepProduct("Dynamic", []float64{1, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if ys[1] <= ys[0] {
		t.Errorf("Dynamic relative RT did not rise: %v", ys)
	}
	dyn := []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
	sweep, err := FutureSweep(scen, dyn, 1024)
	if err != nil {
		t.Fatal(err)
	}
	charts, err := FutureCharts(sweep, dyn)
	if err != nil {
		t.Fatal(err)
	}
	if len(charts) != len(res.Mixes) {
		t.Fatalf("charts = %d, want %d", len(charts), len(res.Mixes))
	}
	for _, ch := range charts {
		if err := ch.Write(&b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	// An empty policy list is not an error on the wire: it selects the
	// kind's defaults.
	if np, err := (Campaign{Kind: "compare"}).Normalize(CampaignParams{}); err != nil || len(np.Policies) == 0 {
		t.Errorf("no policies: normalized to %v, %v; want the default list", np.Policies, err)
	}
	cases := []struct {
		name string
		p    CampaignParams
	}{
		{"bogus policy", CampaignParams{Fast: true, Mix: 1, Policies: []string{"bogus"}}},
		{"unknown mix", CampaignParams{Fast: true, Mix: 9, Policies: []string{"Dynamic"}}},
		{"negative mix", CampaignParams{Fast: true, Mix: -1, Policies: []string{"Dynamic"}}},
	}
	for _, tc := range cases {
		if _, err := Run(context.Background(), "compare", tc.p); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// A failing replication names its cell, and fails the campaign.
	np := mustNormalize(t, "compare", CampaignParams{Fast: true})
	if _, err := replicate(context.Background(), np, symmetry(np.Procs), EngineSim, "mix #9", workload.Mix{Number: 9}, "Dynamic",
		func(rep int) uint64 { return uint64(rep) }); err == nil || !strings.Contains(err.Error(), "mix #9 policy Dynamic") {
		t.Errorf("empty mix: err = %v, want a labelled error", err)
	}
	if _, err := replicate(context.Background(), np, symmetry(np.Procs), EngineSim, "mix #1", workload.Mixes()[0], "bogus",
		func(rep int) uint64 { return uint64(rep) }); err == nil {
		t.Error("bogus policy replicated")
	}
}

func TestRelativeErrors(t *testing.T) {
	var empty CompareCampaignResult
	if _, err := Table3Report(empty, 9, []string{"Dynamic"}); err == nil {
		t.Error("Table3 for missing mix accepted")
	}
	if _, err := Table4Report(empty, []int{9}, "Dynamic", "Equipartition"); err == nil {
		t.Error("Table4 for missing mix accepted")
	}
	if _, err := Table4Report(empty, []int{1}, "Dynamic", "Equipartition"); err == nil {
		t.Error("Table4 for missing policy accepted")
	}
	noBaseline := CompareCampaignResult{Mixes: []int{1}, Policies: []string{"Dynamic"},
		Rows: []CompareCampaignRow{{Mix: 1, Policy: "Dynamic", App: "MVA"}}}
	if _, err := Figure5Report(noBaseline, []string{"Dynamic"}); err == nil {
		t.Error("Figure 5 without the Equipartition baseline accepted")
	}
	baselineOnly := CompareCampaignResult{Mixes: []int{1}, Policies: []string{"Equipartition"},
		Rows: []CompareCampaignRow{{Mix: 1, Policy: "Equipartition", App: "MVA"}}}
	if _, err := Figure5Report(baselineOnly, []string{"Dynamic"}); err == nil {
		t.Error("Figure 5 for a missing policy accepted")
	}
}

func TestFigureApp(t *testing.T) {
	cases := map[int]string{1: "MVA", 2: "MATRIX", 3: "GRAVITY", 4: "GRAVITY", 5: "GRAVITY", 6: "GRAVITY"}
	for _, m := range workload.Mixes() {
		if got := FigureApp(m); got != cases[m.Number] {
			t.Errorf("FigureApp(#%d) = %s, want %s", m.Number, got, cases[m.Number])
		}
	}
}
