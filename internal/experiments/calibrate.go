package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/analytic"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/workload"
)

// This file is the differential calibration harness behind the `auto`
// engine tier: it runs a pinned grid of campaign cells through both the
// discrete-event simulator and the analytic estimator, records per-metric
// relative errors, and promotes the cells whose mean response-time error
// meets the strict threshold. `make regen` (TestPromotionGolden -update)
// records the result as internal/analytic/promotion.json — the envelope
// `auto` trusts — and `affinitysim calibrate` (wired into `make
// analytic-smoke`) re-runs the grid and fails, through Calibration.Check,
// if any promoted cell has drifted past the looser tolerance bound.

// Calibration pin: the fast test scale every calibrated coordinate uses.
// Changing any of these invalidates the checked-in golden — every Coord
// string changes — so `auto` degrades safely to the simulator everywhere
// until the golden is regenerated.
const (
	calibrationProcs    = 16
	calibrationReps     = 2
	calibrationAppScale = 4
	calibrationSeed     = 1
)

// calibrationMetrics are the per-cell metrics the harness records, each a
// replication mean over the cell's runs. Promotion is decided on
// analytic.PromotionMetric alone; the rest are recorded for the error
// table in EXPERIMENTS.md and for drift forensics.
var calibrationMetrics = []string{"mean_rt_sec", "reallocations", "miss_sec", "switch_sec"}

// CalibrationGrid returns the pinned calibration cells with empty metric
// maps: the full compare grid (every mix crossed with the five Figure-5
// policies) plus the futuresim grid (mix 5 over the default product axis,
// Equipartition joining the dynamic policies as the baseline column) at
// the fast test scale.
func CalibrationGrid() []analytic.CalCell {
	var cells []analytic.CalCell
	for mix := 1; mix <= 6; mix++ {
		for _, pol := range comparePoliciesParam.Default.([]string) {
			cells = append(cells, analytic.CalCell{
				Coord: compareCellCoord(calibrationProcs, calibrationReps,
					calibrationAppScale, calibrationSeed, mix, pol),
				Kind:     "compare",
				Procs:    calibrationProcs,
				Reps:     calibrationReps,
				AppScale: calibrationAppScale,
				Seed:     calibrationSeed,
				Mix:      mix,
				Policy:   pol,
			})
		}
	}
	for _, prod := range productsParam.Default.([]float64) {
		for _, pol := range append([]string{"Equipartition"}, dynamicPoliciesParam.Default.([]string)...) {
			cells = append(cells, analytic.CalCell{
				Coord: futureSimCellCoord(calibrationProcs, calibrationReps,
					calibrationAppScale, calibrationSeed, 5, prod, pol),
				Kind:     "futuresim",
				Procs:    calibrationProcs,
				Reps:     calibrationReps,
				AppScale: calibrationAppScale,
				Seed:     calibrationSeed,
				Mix:      5,
				Product:  prod,
				Policy:   pol,
			})
		}
	}
	return cells
}

// calibrationConfigs rebuilds one calibration cell's per-replication
// simulation configs from its structured fields with the campaign cells'
// config builder: compare cells seed by (root, mix, rep), futuresim cells
// by (root, rep), and futuresim cells run on the product-scaled machine.
func calibrationConfigs(cell analytic.CalCell) ([]sched.Config, error) {
	p := CampaignParams{Procs: cell.Procs, AppScale: cell.AppScale}
	mc := symmetry(cell.Procs)
	mix, err := workload.MixByNumber(cell.Mix)
	if err != nil {
		return nil, err
	}
	if cell.Kind == "futuresim" {
		if mc, err = futureSimMachine(mc, cell.Product); err != nil {
			return nil, err
		}
	}
	cfgs := make([]sched.Config, cell.Reps)
	for rep := range cfgs {
		var seed uint64
		switch cell.Kind {
		case "compare":
			seed = parallel.CellSeed(cell.Seed, uint64(cell.Mix), uint64(rep))
		case "futuresim":
			seed = parallel.CellSeed(cell.Seed, uint64(rep))
		default:
			return nil, fmt.Errorf("experiments: calibration cell kind %q unknown", cell.Kind)
		}
		if cfgs[rep], err = replicationConfig(p, mc, mix, cell.Policy, seed); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	return cfgs, nil
}

// cellEngineMetrics runs one calibration cell's replications on the given
// engine tier and aggregates its metric map: mean_rt_sec averages over
// every (job, replication) response time; the remaining metrics are
// per-replication sums over jobs, averaged across replications.
func cellEngineMetrics(ctx context.Context, engine string, cell analytic.CalCell) (map[string]float64, error) {
	cfgs, err := calibrationConfigs(cell)
	if err != nil {
		return nil, err
	}
	var rt, realloc, miss, sw, jobs float64
	for _, cfg := range cfgs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := runCell(engine, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: calibrate %s (%s): %w", cell.Coord, engine, err)
		}
		for _, j := range res.Jobs {
			rt += j.ResponseTime.SecondsF()
			realloc += float64(j.Reallocations)
			miss += j.MissTime.SecondsF()
			sw += j.SwitchTime.SecondsF()
		}
		jobs += float64(len(res.Jobs))
	}
	n := float64(len(cfgs))
	return map[string]float64{
		"mean_rt_sec":   rt / jobs,
		"reallocations": realloc / n,
		"miss_sec":      miss / n,
		"switch_sec":    sw / n,
	}, nil
}

// AnalyticCellMetrics re-runs only the analytic side of one calibration
// cell — cheap enough for unit tests, which compare it against the sim
// values recorded in the checked-in golden instead of re-simulating.
func AnalyticCellMetrics(ctx context.Context, cell analytic.CalCell) (map[string]float64, error) {
	return cellEngineMetrics(ctx, EngineAnalytic, cell)
}

// calibrationRelErr is the relative error |analytic−sim| / max(|sim|, ε):
// finite everywhere, zero only on exact agreement.
func calibrationRelErr(sim, ana float64) float64 {
	if sim == ana {
		return 0
	}
	return math.Abs(ana-sim) / math.Max(math.Abs(sim), 1e-12)
}

// Calibration is the output of one full differential pass.
type Calibration struct {
	// Table is the promotion golden: every calibrated cell with both
	// engines' metric values, relative errors, and the promotion verdict.
	Table analytic.PromotionTable
	// SimSeconds and AnalyticSeconds total the wall-clock each engine
	// spent across all cells — the measured speedup, informational only
	// (never part of the golden; the metric values are deterministic,
	// timings are not).
	SimSeconds      float64
	AnalyticSeconds float64
}

// Calibrate runs the pinned grid on both engines, workers cells at a time
// (0 = all CPUs), and assembles the promotion table: a cell is promoted
// when its analytic mean response time is within
// analytic.DefaultPromoteRelErr of the simulator's.
func Calibrate(ctx context.Context, workers int) (*Calibration, error) {
	cells := CalibrationGrid()
	simNs := make([]int64, len(cells))
	anaNs := make([]int64, len(cells))
	err := parallel.ForEach(ctx, workers, len(cells), func(ctx context.Context, i int) error {
		start := time.Now()
		simM, err := cellEngineMetrics(ctx, EngineSim, cells[i])
		if err != nil {
			return err
		}
		simNs[i] = time.Since(start).Nanoseconds()
		start = time.Now()
		anaM, err := cellEngineMetrics(ctx, EngineAnalytic, cells[i])
		if err != nil {
			return err
		}
		anaNs[i] = time.Since(start).Nanoseconds()
		cells[i].Metrics = make(map[string]analytic.MetricPair, len(calibrationMetrics))
		for _, name := range calibrationMetrics {
			cells[i].Metrics[name] = analytic.MetricPair{
				Sim:      simM[name],
				Analytic: anaM[name],
				RelErr:   calibrationRelErr(simM[name], anaM[name]),
			}
		}
		cells[i].Promoted = cells[i].Metrics[analytic.PromotionMetric].RelErr <= analytic.DefaultPromoteRelErr
		return nil
	})
	if err != nil {
		return nil, err
	}
	cal := &Calibration{Table: analytic.PromotionTable{
		PromoteRelErr: analytic.DefaultPromoteRelErr,
		TolRelErr:     analytic.DefaultTolRelErr,
		Cells:         cells,
	}}
	for i := range cells {
		cal.SimSeconds += float64(simNs[i]) / 1e9
		cal.AnalyticSeconds += float64(anaNs[i]) / 1e9
	}
	return cal, nil
}

// Check enforces golden's tolerance on every cell golden promotes: the
// cell must be in this pass's grid with its analytic.PromotionMetric
// relative error within golden.TolRelErr. The tolerance is looser than the
// threshold promotion itself needs, so float drift across platforms cannot
// flip a borderline cell. Check returns the number of promoted cells, and
// an error naming each violating coordinate.
func (c *Calibration) Check(golden *analytic.PromotionTable) (int, error) {
	fresh := make(map[string]analytic.CalCell, len(c.Table.Cells))
	for _, cell := range c.Table.Cells {
		fresh[cell.Coord] = cell
	}
	var bad []string
	promoted := 0
	for _, g := range golden.Cells {
		if !g.Promoted {
			continue
		}
		promoted++
		f, ok := fresh[g.Coord]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: golden-promoted cell absent from the calibration grid", g.Coord))
			continue
		}
		if re := f.Metrics[analytic.PromotionMetric].RelErr; re > golden.TolRelErr {
			bad = append(bad, fmt.Sprintf("%s: %s rel err %.1f%% exceeds tolerance %.0f%%",
				g.Coord, analytic.PromotionMetric, 100*re, 100*golden.TolRelErr))
		}
	}
	if promoted == 0 {
		return 0, fmt.Errorf("golden promotes no cells; re-record it with make regen")
	}
	if len(bad) > 0 {
		return promoted, fmt.Errorf("%d envelope violations:\n  %s", len(bad), strings.Join(bad, "\n  "))
	}
	return promoted, nil
}
