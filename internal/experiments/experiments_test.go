package experiments

import (
	"context"
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

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := FastOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultOptions()
	bad.Replications = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero replications accepted")
	}
	bad = DefaultOptions()
	bad.MeasureBudget = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	bad = DefaultOptions()
	bad.AppScale = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero scale accepted")
	}
}

func TestDefaultMachineIs16ProcSymmetry(t *testing.T) {
	o := DefaultOptions()
	if o.Machine.Processors != 16 {
		t.Errorf("processors = %d, want 16 (paper's experiment size)", o.Machine.Processors)
	}
	if o.Machine.Cache.SizeBytes != 64*1024 {
		t.Errorf("cache = %d, want Symmetry's 64KB", o.Machine.Cache.SizeBytes)
	}
}

func TestScaledApps(t *testing.T) {
	o := FastOptions()
	mix, _ := workload.MixByNumber(6)
	apps := o.apps(mix, 1)
	if len(apps) != 3 {
		t.Fatalf("apps = %d", len(apps))
	}
	full := DefaultOptions().apps(mix, 1)
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

// fastTable1 runs the table1 campaign at the FastOptions budget.
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
// measure.BuildTable1Ctx converts to the table1 campaign's result byte for
// byte and records the same stats — affinitysim measure -detail relies on
// it to run the protocol once.
func TestTable1ResultMatchesCampaign(t *testing.T) {
	p := CampaignParams{Fast: true, BudgetSec: 2}
	campStats := obs.NewCampaignStats()
	want := mustRun(t, obs.WithCollector(context.Background(), campStats), "table1", p)
	o, err := p.options()
	if err != nil {
		t.Fatal(err)
	}
	mc := o.Machine
	mc.Processors = 1
	t1, err := measure.BuildTable1Ctx(context.Background(), mc, memtrace.Patterns(), measure.DefaultQs(),
		o.MeasureBudget, o.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	directStats := obs.NewCampaignStats()
	got := Table1Result(t1, mc, o.MeasureBudget, directStats)
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
	cr, err := res.CompareResult(FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	scen, err := FutureScenarios(cr, fastTable1(t).Table1())
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
	opts := FastOptions()
	if _, err := ComparePolicies(opts, nil, []string{"Dynamic"}); err == nil {
		t.Error("no mixes accepted")
	}
	if _, err := ComparePolicies(opts, workload.Mixes()[:1], nil); err == nil {
		t.Error("no policies accepted")
	}
	if _, err := ComparePolicies(opts, workload.Mixes()[:1], []string{"bogus"}); err == nil {
		t.Error("bogus policy accepted")
	}
	mix := workload.Mix{Number: 9}
	if _, err := ComparePolicies(opts, []workload.Mix{mix}, []string{"Dynamic"}); err == nil {
		t.Error("empty mix accepted")
	}
}

func TestRelativeErrors(t *testing.T) {
	opts := FastOptions()
	cr, err := ComparePolicies(opts, []workload.Mix{{Number: 1, MVA: 2}}, []string{"Equipartition", "Dynamic"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.Relative(9, "Dynamic", "Equipartition"); err == nil {
		t.Error("missing mix accepted")
	}
	if _, err := cr.Relative(1, "bogus", "Equipartition"); err == nil {
		t.Error("missing policy accepted")
	}
	if _, err := cr.Relative(1, "Dynamic", "bogus"); err == nil {
		t.Error("missing baseline accepted")
	}
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
	if _, err := (CompareCampaignResult{Mixes: []int{1}, Rows: []CompareCampaignRow{{Mix: 2}}}).CompareResult(opts); err == nil {
		t.Error("CompareResult accepted a row outside the result's mixes")
	}
	noBaseline := CompareCampaignResult{Mixes: []int{1}, Policies: []string{"Dynamic"},
		Rows: []CompareCampaignRow{{Mix: 1, Policy: "Dynamic", App: "MVA"}}}
	if _, err := Figure5Report(noBaseline, []string{"Dynamic"}); err == nil {
		t.Error("Figure 5 without the Equipartition baseline accepted")
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
