// Package experiments wires the substrate packages into the paper's
// experiments. Every exhibit is a registered campaign kind, executed by
// Run(ctx, kind, params) — plan the grid's cells, fan them out, merge —
// and rendered from the kind's wire result; the command-line tools, the
// examples, the service and the fleet all go through the same cell plans.
//
// The experiment inventory (see DESIGN.md for the full index):
//
//   - characterize → Figures 2–4 (CharacterTable, ProfileTable)
//   - table1       → Table 1 (Table1Report)
//   - compare      → Figures 5 and 6, Tables 3 and 4 (Figure5Report,
//     Table3Report, Table4Report)
//   - future       → Figures 8–13 (FutureScenarios, FutureSweep,
//     FutureCharts)
//   - futuresim    → Section 7 validation (FutureSimTable)
//   - relatedwork  → Section 8 (RelatedWorkTable)
//
// A campaign has one parameterization, CampaignParams: Normalize is where
// its defaults (the fast preset included) and its bounds live, and every
// cell reads its normalized params directly. MPLSweep, the one extension
// driver with no campaign kind (affinitysim extras runs it), takes the
// same params. Per-run simulation statistics ride the context
// (obs.WithCollector), never the params.
package experiments

import (
	"repro/internal/machine"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// symmetry is the experiment machine: the Sequent Symmetry restricted to
// procs processors (the paper's campaigns run on 16).
func symmetry(procs int) machine.Config {
	m := machine.Symmetry()
	m.Processors = procs
	return m
}

// apps instantiates a mix's applications at p's AppScale. seed feeds
// GRAVITY's thread-time jitter so replications differ.
func (p CampaignParams) apps(m workload.Mix, seed uint64) []workload.App {
	if p.AppScale <= 1 {
		return m.Apps(seed)
	}
	// Scaled-down instances: same structure, fewer/shorter threads.
	var out []workload.App
	s := p.AppScale
	for i := 0; i < m.MVA; i++ {
		out = append(out, workload.MVASized(max(4, 24/s*2), 180*simtime.Millisecond))
	}
	for i := 0; i < m.Matrix; i++ {
		out = append(out, workload.MatrixSized(max(4, 22/s*2), 850*simtime.Millisecond/simtime.Duration(s)))
	}
	for i := 0; i < m.Gravity; i++ {
		out = append(out, workload.GravitySized(max(2, 28/s), 128, 200*simtime.Millisecond,
			20*simtime.Millisecond, seed+uint64(i)*0x9e3779b9))
	}
	return out
}
