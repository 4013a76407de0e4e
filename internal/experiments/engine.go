package experiments

import (
	"fmt"

	"repro/internal/analytic"
	"repro/internal/sched"
)

// Engine tiers for the grid-shaped campaign kinds. EngineSim runs every
// cell through the discrete-event simulator; EngineAnalytic estimates every
// cell with internal/analytic; EngineAuto serves a cell analytically only
// when its coordinate is inside the differentially validated promotion
// envelope (analytic.DefaultEnvelope) and falls back to the simulator
// elsewhere. The engine choice participates in cell and campaign cache
// keys, so simulated and analytic results never mix in a result cache.
const (
	EngineSim      = "sim"
	EngineAnalytic = "analytic"
	EngineAuto     = "auto"
)

// ValidateEngine reports whether engine names a tier the campaign kind
// can run: any known tier on the kinds that list the engine parameter,
// only "" or EngineSim elsewhere (unknown kinds included). The returned
// error is the same *ParamError the service surfaces (field
// "params.engine"), so a CLI flag and an HTTP request fail with
// identical diagnostics instead of the flag being silently ignored.
func ValidateEngine(kind, engine string) error {
	norm, err := normalizeEngine(engine)
	if err != nil {
		return &ParamError{Field: "params.engine", Msg: err.Error()}
	}
	if k := kindByName(kind); norm != EngineSim && (k == nil || k.param(engineParam.Name) == nil) {
		return &ParamError{Field: "params.engine",
			Msg: fmt.Sprintf("kind %q has no simulation grid; engine must be omitted or %q", kind, EngineSim)}
	}
	return nil
}

// normalizeEngine folds the empty default to EngineSim and rejects unknown
// tiers.
func normalizeEngine(engine string) (string, error) {
	switch engine {
	case "", EngineSim:
		return EngineSim, nil
	case EngineAnalytic, EngineAuto:
		return engine, nil
	}
	return "", fmt.Errorf("unknown engine %q (valid: %s, %s, %s)",
		engine, EngineSim, EngineAnalytic, EngineAuto)
}

// compareCellCoord is the canonical coordinate of one compare-grid cell —
// the envelope lookup key shared by the campaign runners, the cell planner,
// and the calibration harness. Every parameter that changes the cell's
// simulated bits participates.
func compareCellCoord(procs, reps, appScale int, seed uint64, mix int, policy string) string {
	return fmt.Sprintf("compare|procs=%d|reps=%d|app_scale=%d|seed=%d|mix=%d|policy=%s",
		procs, reps, appScale, seed, mix, policy)
}

// futureSimCellCoord is the canonical coordinate of one futuresim-grid
// cell.
func futureSimCellCoord(procs, reps, appScale int, seed uint64, mix int, product float64, policy string) string {
	return fmt.Sprintf("futuresim|procs=%d|reps=%d|app_scale=%d|seed=%d|mix=%d|product=%g|policy=%s",
		procs, reps, appScale, seed, mix, product, policy)
}

// autoEngine resolves EngineAuto for the cell at coord: auto promotes
// exactly the envelope and simulates everywhere else. Resolution happens
// at planning time so cache keys carry only "sim" or "analytic" — an auto
// cell shares its cache entry with the same cell requested explicitly.
// Planners build coord only under auto; the other tiers pass through.
func autoEngine(coord string) string {
	if analytic.DefaultEnvelope().Promoted(coord) {
		return EngineAnalytic
	}
	return EngineSim
}

// runCell executes one cell on the resolved engine tier.
func runCell(engine string, cfg sched.Config) (sched.Result, error) {
	if engine == EngineAnalytic {
		return analytic.Run(cfg)
	}
	return runSim(cfg)
}
