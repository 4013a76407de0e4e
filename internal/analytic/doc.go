// Package analytic estimates campaign-cell results — per-policy response
// times, reallocation counts, and P^A/P^NA penalty charges — from the
// paper's response-time model (Figure 1) and the footprint curves of
// internal/footprint, without running the discrete-event simulator.
//
// The estimator plays the same role the paper's own Section-7 analysis
// plays: the authors never simulate their future machines, they extrapolate
// with the analytic model. Here that idea is productized as a fast engine
// tier: a level-synchronous fluid approximation of the workload's execution
// (over each graph's precomputed workload.Graph.Levels), a processor
// water-fill standing in for the allocation policy (engine.go), and the
// footprint segment model supplying the cache-reload penalty term. A differential calibration harness
// (internal/experiments.Calibrate, run by `affinitysim calibrate`) validates the
// estimator against the exact simulator cell by cell and promotes only the
// coordinates whose error stays within tolerance (envelope.go); the `auto`
// engine trusts exactly that envelope.
//
// The estimator is deterministic: all accumulation iterates slices in index
// order, and no maps participate in floating-point arithmetic, so a given
// Config always produces bitwise identical Results.
package analytic
