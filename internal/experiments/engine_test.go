package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/report"
)

// calibrationParams returns CampaignParams pinned to the calibration scale,
// so cell coordinates land exactly on the golden's grid.
func calibrationParams() CampaignParams {
	return CampaignParams{
		Procs:        calibrationProcs,
		Replications: calibrationReps,
		AppScale:     calibrationAppScale,
		Seed:         calibrationSeed,
	}
}

func TestEngineNormalize(t *testing.T) {
	for in, want := range map[string]string{
		"": EngineSim, EngineSim: EngineSim,
		EngineAnalytic: EngineAnalytic, EngineAuto: EngineAuto,
	} {
		got, err := normalizeEngine(in)
		if err != nil || got != want {
			t.Errorf("normalizeEngine(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	_, err := normalizeEngine("warp")
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, name := range []string{EngineSim, EngineAnalytic, EngineAuto} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name valid tier %q", err, name)
		}
	}
}

// Kinds without a simulation grid must reject the analytic tiers instead of
// silently simulating under a lying label.
func TestEngineRejectedOnNonGridKinds(t *testing.T) {
	for _, kind := range []string{"characterize", "table1", "relatedwork"} {
		for _, engine := range []string{EngineAnalytic, EngineAuto} {
			p := CampaignParams{Fast: true, BudgetSec: 0.5, Engine: engine}
			if _, err := Cells(kind, p); err == nil {
				t.Errorf("kind %s accepted engine=%s", kind, engine)
			}
		}
		p := CampaignParams{Fast: true, BudgetSec: 0.5, Engine: EngineSim}
		if _, err := Cells(kind, p); err != nil {
			t.Errorf("kind %s rejected the explicit sim default: %v", kind, err)
		}
	}
}

// The same grid coordinate on different engine tiers must derive different
// cell cache keys: analytic estimates and simulated results never share an
// entry. An auto plan's promoted cells, by contrast, share keys with the
// explicit analytic tier — resolution happens at planning time.
func TestEngineTiersDeriveDistinctCellKeys(t *testing.T) {
	for _, kind := range []string{"compare", "futuresim"} {
		p := calibrationParams()
		if kind == "compare" {
			p.Mix = 5
			p.Policies = []string{"Dyn-Aff"}
		}
		planOf := func(engine string) *CellPlan {
			p := p
			p.Engine = engine
			plan, err := Cells(kind, p)
			if err != nil {
				t.Fatalf("%s engine=%s: %v", kind, engine, err)
			}
			return plan
		}
		sim, ana, auto := planOf(EngineSim), planOf(EngineAnalytic), planOf(EngineAuto)
		for i := range sim.Cells {
			if bytes.Equal(sim.Cells[i].KeyParams, ana.Cells[i].KeyParams) {
				t.Errorf("%s cell %s: sim and analytic share a cache key", kind, sim.Cells[i].ID)
			}
			if sim.Cells[i].Engine != EngineSim || ana.Cells[i].Engine != EngineAnalytic {
				t.Errorf("%s cell %s: engines %q/%q, want sim/analytic",
					kind, sim.Cells[i].ID, sim.Cells[i].Engine, ana.Cells[i].Engine)
			}
			got := auto.Cells[i]
			switch got.Engine {
			case EngineAnalytic:
				if !bytes.Equal(got.KeyParams, ana.Cells[i].KeyParams) {
					t.Errorf("%s cell %s: promoted auto cell does not share the analytic key", kind, got.ID)
				}
			case EngineSim:
				if !bytes.Equal(got.KeyParams, sim.Cells[i].KeyParams) {
					t.Errorf("%s cell %s: unpromoted auto cell does not share the sim key", kind, got.ID)
				}
			default:
				t.Errorf("%s cell %s: unresolved engine %q in plan", kind, got.ID, got.Engine)
			}
		}
	}
}

// Auto must select the analytic tier exactly inside the promotion envelope:
// never outside it, and (on the calibrated grid) everywhere inside it.
func TestAutoSelectsAnalyticOnlyInsideEnvelope(t *testing.T) {
	env := analytic.DefaultEnvelope()
	if env.Size() == 0 {
		t.Fatal("checked-in golden promotes no cells")
	}

	p := calibrationParams()
	p.Engine = EngineAuto
	plan, err := Cells("compare", p)
	if err != nil {
		t.Fatal(err)
	}
	mixNumbers := allMixNumbers()
	policies := plan.Params.Policies
	if len(plan.Cells) != len(mixNumbers)*len(policies) {
		t.Fatalf("plan has %d cells, want %d", len(plan.Cells), len(mixNumbers)*len(policies))
	}
	analyticCells := 0
	for i, cell := range plan.Cells {
		mix := mixNumbers[i/len(policies)]
		pol := policies[i%len(policies)]
		coord := compareCellCoord(calibrationProcs, calibrationReps,
			calibrationAppScale, calibrationSeed, mix, pol)
		want := EngineSim
		if env.Promoted(coord) {
			want = EngineAnalytic
		}
		if cell.Engine != want {
			t.Errorf("%s: auto resolved %q, want %q (promoted=%v)",
				cell.ID, cell.Engine, want, env.Promoted(coord))
		}
		if cell.Engine == EngineAnalytic {
			analyticCells++
		}
	}
	if analyticCells == 0 {
		t.Error("auto promoted nothing on the calibrated compare grid")
	}

	// The calibration grid was measured at seed 1; any other seed is an
	// uncalibrated coordinate, so auto must fall back to the simulator for
	// every cell.
	off := p
	off.Seed = calibrationSeed + 1
	offPlan, err := Cells("compare", off)
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range offPlan.Cells {
		if cell.Engine != EngineSim {
			t.Errorf("%s: auto selected %q outside the calibrated grid", cell.ID, cell.Engine)
		}
	}
}

// The analytic estimator is deterministic: the same cell must produce
// byte-identical canonical JSON on repeated runs.
func TestAnalyticCellBytesStable(t *testing.T) {
	p := calibrationParams()
	p.Mix = 5
	p.Policies = []string{"Dyn-Aff"}
	p.Engine = EngineAnalytic
	plan, err := Cells("compare", p)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		res, err := plan.Cells[0].Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := report.CanonicalJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); !bytes.Equal(got, first) {
			t.Fatalf("analytic cell bytes unstable on rerun %d:\n%s\nvs\n%s", i, first, got)
		}
	}
}

// Every golden-promoted cell's analytic mean response time must still be
// within the golden's tolerance of the sim value recorded at -write time.
// This is the cheap half of `affinitysim calibrate`: it re-runs only the
// analytic side, trusting the golden's sim numbers.
func TestAnalyticAccuracyWithinGoldenTolerance(t *testing.T) {
	golden := analytic.DefaultTable()
	promoted := 0
	for _, cell := range golden.Cells {
		if !cell.Promoted {
			continue
		}
		promoted++
		m, err := AnalyticCellMetrics(context.Background(), cell)
		if err != nil {
			t.Fatalf("%s: %v", cell.Coord, err)
		}
		sim := cell.Metrics[analytic.PromotionMetric].Sim
		if re := calibrationRelErr(sim, m[analytic.PromotionMetric]); re > golden.TolRelErr {
			t.Errorf("%s: analytic mean RT drifted to %.1f%% rel err (tolerance %.0f%%)",
				cell.Coord, 100*re, 100*golden.TolRelErr)
		}
	}
	if promoted == 0 {
		t.Fatal("golden promotes no cells")
	}
}

// The calibration grid and the checked-in golden must agree coordinate for
// coordinate: a drifted grid would silently shrink (or misdirect) the
// envelope auto trusts.
func TestCalibrationGridMatchesGolden(t *testing.T) {
	grid := CalibrationGrid()
	coords := make(map[string]bool, len(grid))
	for _, c := range grid {
		if coords[c.Coord] {
			t.Errorf("duplicate calibration coordinate %s", c.Coord)
		}
		coords[c.Coord] = true
	}
	golden := analytic.DefaultTable()
	if len(golden.Cells) != len(grid) {
		t.Errorf("golden has %d cells, grid has %d; regenerate with affinitysim calibrate -write",
			len(golden.Cells), len(grid))
	}
	for _, g := range golden.Cells {
		if !coords[g.Coord] {
			t.Errorf("golden cell %s is no longer on the calibration grid", g.Coord)
		}
	}
}

// BenchmarkFutureSimEngines pits the two tiers against each other on the
// registered futuresim campaign at the calibration scale — the measured
// speedup the analytic tier exists for (the acceptance floor is 10x;
// sequential runs measure ~100x).
func BenchmarkFutureSimEngines(b *testing.B) {
	for _, engine := range []string{EngineSim, EngineAnalytic} {
		engine := engine
		b.Run(engine, func(b *testing.B) {
			p := calibrationParams()
			p.Mix = 5
			p.Engine = engine
			p.Workers = 1 // sequential: compare engine cost, not parallelism
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), "futuresim", p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
