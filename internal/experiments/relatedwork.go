package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workload"
)

// RelatedWorkResult quantifies Section 8's space-vs-time-sharing contrast:
// how much affinity matters under quantum-driven time sharing (the domain
// of Squillante & Lazowska, Mogul & Borg) versus under the paper's space
// sharing.
type RelatedWorkResult struct {
	// Rows, one per policy: mean response time, total cache-miss stall
	// time, reallocations, and %affinity summed over the mix's jobs.
	Rows []RelatedWorkRow
	// TimeSharingAffinityGain is the fractional response-time improvement
	// affinity buys under time sharing (RR vs Aff).
	TimeSharingAffinityGain float64
	// SpaceSharingAffinityGain is the same for space sharing
	// (Dynamic vs Dyn-Aff).
	SpaceSharingAffinityGain float64
	// TimeSharingMissGain and SpaceSharingMissGain are the fractional
	// reductions in cache-miss stall time affinity buys in each domain —
	// the mechanism behind the response-time effect, and the quantity on
	// which the Section-8 contrast is sharpest.
	TimeSharingMissGain  float64
	SpaceSharingMissGain float64
}

// RelatedWorkRow is one policy's aggregate outcome.
type RelatedWorkRow struct {
	Policy        string
	MeanRT        float64
	MissSec       float64
	Reallocations int
	PctAffinity   float64
}

// relatedWorkPolicies lists the Section-8 contrast's four policies: time
// sharing with and without affinity, then space sharing likewise.
func relatedWorkPolicies() []string {
	return []string{"TimeShare-RR", "TimeShare-Aff", "Dynamic", "Dyn-Aff"}
}

// relatedWorkRowFrom aggregates one policy's replications in replication
// order: one relatedwork cell.
func relatedWorkRowFrom(polName string, runs []sched.Result) RelatedWorkRow {
	R := len(runs)
	var row RelatedWorkRow
	row.Policy = polName
	for rep := 0; rep < R; rep++ {
		r := runs[rep]
		n := float64(R)
		row.MeanRT += r.MeanResponse() / n
		for _, j := range r.Jobs {
			row.MissSec += j.MissTime.SecondsF() / n
			row.Reallocations += j.Reallocations / R
			row.PctAffinity += j.PctAffinity() / (n * float64(len(r.Jobs)))
		}
	}
	return row
}

// relatedWorkDerive computes the affinity-gain contrasts from the
// per-policy rows.
func relatedWorkDerive(rows []RelatedWorkRow) *RelatedWorkResult {
	res := &RelatedWorkResult{Rows: rows}
	byName := make(map[string]*RelatedWorkRow, len(rows))
	for i := range res.Rows {
		byName[res.Rows[i].Policy] = &res.Rows[i]
	}
	gain := func(base, aff string) float64 {
		b, a := byName[base].MeanRT, byName[aff].MeanRT
		if b == 0 {
			return 0
		}
		return (b - a) / b
	}
	res.TimeSharingAffinityGain = gain("TimeShare-RR", "TimeShare-Aff")
	res.SpaceSharingAffinityGain = gain("Dynamic", "Dyn-Aff")
	missGain := func(base, aff string) float64 {
		b, a := byName[base].MissSec, byName[aff].MissSec
		if b == 0 {
			return 0
		}
		return (b - a) / b
	}
	res.TimeSharingMissGain = missGain("TimeShare-RR", "TimeShare-Aff")
	res.SpaceSharingMissGain = missGain("Dynamic", "Dyn-Aff")
	return res
}

// RelatedWorkTable renders the comparison.
func RelatedWorkTable(r *RelatedWorkResult) report.Table {
	t := report.Table{
		Title: "Section 8 — affinity matters more under time sharing than space sharing (mix #5)",
		Headers: []string{"policy", "mean RT (s)", "miss stall (CPU-s)",
			"reallocations", "%affinity"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Policy,
			report.F(row.MeanRT, 2),
			report.F(row.MissSec, 2),
			fmt.Sprintf("%d", row.Reallocations),
			report.Pct(row.PctAffinity))
	}
	t.AddRow("", "", "", "", "")
	t.AddRow("affinity RT gain: time sharing", report.Pct(r.TimeSharingAffinityGain), "", "", "")
	t.AddRow("affinity RT gain: space sharing", report.Pct(r.SpaceSharingAffinityGain), "", "", "")
	t.AddRow("affinity miss-stall gain: time sharing", report.Pct(r.TimeSharingMissGain), "", "", "")
	t.AddRow("affinity miss-stall gain: space sharing", report.Pct(r.SpaceSharingMissGain), "", "", "")
	return t
}

// MPLPoint is one multiprogramming level of an MPL sweep.
type MPLPoint struct {
	Jobs   int
	MeanRT map[string]float64 // policy -> mean job response time (s)
}

// MPLSweep runs k identical GRAVITY jobs for k = 1..maxJobs under the given
// policies — an extension exhibit showing how the dynamic policies' edge
// over Equipartition varies with multiprogramming level (barrier dips
// matter most when a partner job can absorb them).
func MPLSweep(ctx context.Context, opts Options, maxJobs int, policies []string) ([]MPLPoint, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if maxJobs < 1 {
		return nil, fmt.Errorf("experiments: maxJobs must be >= 1")
	}
	// Fan the (level, policy, replication) cells out;
	// idx = ((k-1)*len(policies) + pi)*R + rep.
	R := opts.Replications
	rts := make([]float64, maxJobs*len(policies)*R)
	simStats := make([]obs.SimStats, len(rts))
	err := parallel.ForEach(ctx, opts.Workers, len(rts), func(ctx context.Context, idx int) error {
		rep := idx % R
		polName := policies[idx/R%len(policies)]
		k := idx/R/len(policies) + 1
		seed := parallel.CellSeed(opts.Seed, uint64(rep))
		mix := workload.Mix{Number: 100 + k, Gravity: k}
		pol, ok := core.ByName(polName)
		if !ok {
			return fmt.Errorf("experiments: unknown policy %q", polName)
		}
		r, err := runSim(sched.Config{
			Machine: opts.Machine,
			Policy:  pol,
			Apps:    opts.apps(mix, seed),
			Seed:    seed,
		})
		if err != nil {
			return err
		}
		rts[idx] = r.MeanResponse()
		simStats[idx] = r.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opts.Stats != nil {
		parallel.Fold(simStats, func(idx int, s obs.SimStats) {
			opts.Stats.Add(policies[idx/R%len(policies)], s)
		})
	}
	var out []MPLPoint
	for k := 1; k <= maxJobs; k++ {
		pt := MPLPoint{Jobs: k, MeanRT: make(map[string]float64)}
		for pi, polName := range policies {
			var mean float64
			base := ((k-1)*len(policies) + pi) * R
			for rep := 0; rep < R; rep++ {
				mean += rts[base+rep] / float64(R)
			}
			pt.MeanRT[polName] = mean
		}
		out = append(out, pt)
	}
	return out, nil
}

// MPLTable renders an MPL sweep.
func MPLTable(points []MPLPoint, policies []string) report.Table {
	t := report.Table{
		Title:   "Extension — mean job response time vs multiprogramming level (GRAVITY x k)",
		Headers: append([]string{"jobs"}, policies...),
	}
	for _, pt := range points {
		row := []string{fmt.Sprintf("%d", pt.Jobs)}
		for _, p := range policies {
			row = append(row, report.F(pt.MeanRT[p], 2))
		}
		t.AddRow(row...)
	}
	return t
}
