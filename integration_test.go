package repro

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
)

// TestModelReproducesMeasurementAtBaseline verifies the parameter-extraction
// contract: the analytic model, parameterized from a scheduling experiment
// per Section 7.3, must reproduce the measured response time exactly at
// speed = cache = 1 (work is backed out of equation (1), so this is a
// round-trip check on the whole extraction pipeline).
func TestModelReproducesMeasurementAtBaseline(t *testing.T) {
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff"}
	cmp, err := experiments.Run(context.Background(), "compare",
		experiments.CampaignParams{Fast: true, Mix: 5, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	res := cmp.(experiments.CompareCampaignResult)
	t1, err := experiments.Run(context.Background(), "table1", experiments.CampaignParams{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	scen, err := experiments.FutureScenarios(res, t1.(experiments.Table1CampaignResult).Table1(), experiments.FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	for key, sc := range scen {
		for pol, params := range sc.Policies {
			modelRT := params.ResponseTime()
			// Recover the measured RT for this (mix, app, policy).
			var measured float64
			n := 0
			for _, job := range jobRows(t, res, key.Mix, pol) {
				if job.App == key.App {
					measured += job.MeanRTSec
					n++
				}
			}
			measured /= float64(n)
			if math.Abs(modelRT-measured)/measured > 0.01 {
				t.Errorf("%v/%s: model RT %.3f vs measured %.3f", key, pol, modelRT, measured)
			}
		}
	}
}

// TestPipelineDeterminism verifies that the entire experiment pipeline is
// reproducible: identical options produce byte-identical reports.
func TestPipelineDeterminism(t *testing.T) {
	render := func() string {
		res, err := experiments.Run(context.Background(), "compare", experiments.CampaignParams{
			Fast: true, Replications: 1, Mix: 5, Policies: []string{"Equipartition", "Dynamic", "Dyn-Aff"},
		})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := experiments.Figure5Report(res.(experiments.CompareCampaignResult), []string{"Dynamic", "Dyn-Aff"})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := tab.Write(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("pipeline not deterministic:\n%s\nvs\n%s", a, b)
	}
}

// TestPaperConclusionsAtPaperScale is the capstone: at full paper scale
// (one replication to keep it minutes-fast), every headline conclusion of
// the paper must hold. Skipped under -short.
func TestPaperConclusionsAtPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale run is tens of seconds")
	}
	policies := []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
	cmp, err := experiments.Run(context.Background(), "compare",
		experiments.CampaignParams{Replications: 1, Policies: policies})
	if err != nil {
		t.Fatal(err)
	}
	res := cmp.(experiments.CompareCampaignResult)

	// Conclusion 1 (Fig 5): dynamic policies beat or match Equipartition
	// for every job of every mix.
	for _, mix := range res.Mixes {
		for _, pol := range []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"} {
			for i, job := range jobRows(t, res, mix, pol) {
				if job.RelRT > 1.03 {
					t.Errorf("mix #%d job %d: %s relative RT %.3f > 1", mix, i, pol, job.RelRT)
				}
			}
		}
	}

	// Conclusion 2 (Table 3): the dynamic variants are nearly identical
	// today, while their %affinity differs dramatically.
	grav := func(pol string) experiments.CompareCampaignRow { return jobRows(t, res, 5, pol)[1] }
	dynAffGap := math.Abs(grav("Dynamic").MeanRTSec-grav("Dyn-Aff").MeanRTSec) /
		grav("Dynamic").MeanRTSec
	if dynAffGap > 0.05 {
		t.Errorf("Dynamic vs Dyn-Aff RT gap %.3f, want < 5%%", dynAffGap)
	}
	if grav("Dyn-Aff").PctAffinity < 3*grav("Dynamic").PctAffinity {
		t.Errorf("affinity contrast too weak: %v vs %v",
			grav("Dyn-Aff").PctAffinity, grav("Dynamic").PctAffinity)
	}

	// Conclusion 3 (Table 3): yield-delay substantially reduces
	// reallocations.
	if grav("Dyn-Aff-Delay").Reallocations > 0.8*grav("Dyn-Aff").Reallocations {
		t.Errorf("yield delay barely reduced reallocations: %v vs %v",
			grav("Dyn-Aff-Delay").Reallocations, grav("Dyn-Aff").Reallocations)
	}

	// Conclusion 4 (Figs 8-13): Dynamic's relative RT rises with the
	// speed×cache product and crosses 1.0; the affinity variants cross
	// later or not at all.
	t1, err := experiments.Run(context.Background(), "table1", experiments.CampaignParams{BudgetSec: 10})
	if err != nil {
		t.Fatal(err)
	}
	scen, err := experiments.FutureScenarios(res, t1.(experiments.Table1CampaignResult).Table1(), experiments.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sc := scen[experiments.ScenarioKey{Mix: 5, App: "GRAVITY"}]
	products := model.Products(1<<14, 4)
	crossDyn, err := sc.Crossover("Dynamic", products)
	if err != nil {
		t.Fatal(err)
	}
	if crossDyn == 0 {
		t.Error("Dynamic never crossed Equipartition — Section 7's rise is missing")
	}
	crossAff, err := sc.Crossover("Dyn-Aff", products)
	if err != nil {
		t.Fatal(err)
	}
	if crossAff != 0 && crossAff < crossDyn {
		t.Errorf("Dyn-Aff crossed (%v) before Dynamic (%v)", crossAff, crossDyn)
	}
	crossDelay, err := sc.Crossover("Dyn-Aff-Delay", products)
	if err != nil {
		t.Fatal(err)
	}
	if crossDelay != 0 && crossAff != 0 && crossDelay < crossAff {
		t.Errorf("Dyn-Aff-Delay crossed (%v) before Dyn-Aff (%v)", crossDelay, crossAff)
	}
}
