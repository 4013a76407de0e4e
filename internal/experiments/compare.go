package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// CompareResult holds the replication-averaged outcomes of scheduling the
// given mixes under the given policies — the data behind Figures 5–6 and
// Tables 3–4.
type CompareResult struct {
	Opts     Options
	Mixes    []workload.Mix
	Policies []string
	// Summaries[mixNumber][policy][jobIndex]
	Summaries map[int]map[string][]JobSummary
}

// ComparePolicies schedules every mix under every policy, replicated with
// distinct seeds, and aggregates per-job metrics. It is ComparePoliciesCtx
// without cancellation.
func ComparePolicies(opts Options, mixes []workload.Mix, policies []string) (*CompareResult, error) {
	return ComparePoliciesCtx(context.Background(), opts, mixes, policies)
}

// ComparePoliciesCtx runs the comparison campaign, fanning the individual
// (mix, policy, replication) simulation cells out over opts.Workers worker
// goroutines. Each cell's seed is parallel.CellSeed(opts.Seed, mix number,
// replication) — a pure function of the cell's grid coordinates — and
// results are merged in grid order after all cells finish, so the output is
// bitwise identical for every worker count. The seed deliberately excludes
// the policy index: replication r observes the same workload under every
// policy (common random numbers), which keeps relative response times
// low-variance. On error the campaign is cancelled and the error of the
// lowest-numbered failing cell is returned, matching what a sequential loop
// would have reported. ctx cancellation aborts outstanding cells.
func ComparePoliciesCtx(ctx context.Context, opts Options, mixes []workload.Mix, policies []string) (*CompareResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(mixes) == 0 || len(policies) == 0 {
		return nil, fmt.Errorf("experiments: need at least one mix and one policy")
	}
	// Fail fast on bad inputs before spinning up workers: every mix must be
	// valid and every policy name constructible. Policies themselves are
	// built per cell inside the workers — policy values carry per-run state
	// and must never be shared across goroutines.
	for _, mix := range mixes {
		if err := mix.Validate(); err != nil {
			return nil, err
		}
	}
	for _, polName := range policies {
		if _, ok := core.ByName(polName); !ok {
			return nil, fmt.Errorf("experiments: unknown policy %q", polName)
		}
	}

	// One slot per (mix, policy, replication) cell, merged in index order
	// below. idx = (mi*len(policies) + pi)*R + rep.
	R := opts.Replications
	runs := make([]sched.Result, len(mixes)*len(policies)*R)
	err := parallel.ForEach(ctx, opts.Workers, len(runs), func(ctx context.Context, idx int) error {
		rep := idx % R
		pi := idx / R % len(policies)
		mi := idx / R / len(policies)
		mix, polName := mixes[mi], policies[pi]
		seed := parallel.CellSeed(opts.Seed, uint64(mix.Number), uint64(rep))
		pol, ok := core.ByName(polName)
		if !ok {
			return fmt.Errorf("experiments: unknown policy %q", polName)
		}
		// Resolve the engine tier from the cell's canonical coordinate —
		// the same resolution the cell planner performs, so a direct call
		// and a planned cell agree bit for bit under engine=auto.
		engine := resolveCellEngine(opts.engine(), compareCellCoord(
			opts.Machine.Processors, R, opts.AppScale, opts.Seed, mix.Number, polName))
		res, err := runCell(engine, sched.Config{
			Machine: opts.Machine,
			Policy:  pol,
			Apps:    opts.apps(mix, seed),
			Seed:    seed,
		})
		if err != nil {
			return fmt.Errorf("experiments: mix #%d policy %s: %w", mix.Number, polName, err)
		}
		runs[idx] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Fold per-run simulation stats in grid order (never inside the
	// workers), keyed by policy, so the collector's totals are identical
	// at every worker count.
	if opts.Stats != nil {
		parallel.Fold(runs, func(idx int, res sched.Result) {
			opts.Stats.Add(policies[idx/R%len(policies)], res.Stats)
		})
	}

	cr := &CompareResult{
		Opts:      opts,
		Mixes:     mixes,
		Policies:  policies,
		Summaries: make(map[int]map[string][]JobSummary),
	}
	for mi, mix := range mixes {
		cr.Summaries[mix.Number] = make(map[string][]JobSummary)
		for pi, polName := range policies {
			base := (mi*len(policies) + pi) * R
			cr.Summaries[mix.Number][polName] = summarize(runs[base:base+R], R)
		}
	}
	return cr, nil
}

// summarize aggregates one cell's replications, in replication order.
func summarize(runs []sched.Result, reps int) []JobSummary {
	var sums []JobSummary
	for _, res := range runs {
		if sums == nil {
			sums = make([]JobSummary, len(res.Jobs))
			for i := range sums {
				sums[i] = JobSummary{App: res.Jobs[i].App, RT: &stats.Sample{}}
			}
		}
		for i, j := range res.Jobs {
			s := &sums[i]
			s.RT.Add(j.ResponseTime.SecondsF())
			n := float64(reps)
			s.WorkSec += j.Work.SecondsF() / n
			s.WasteSec += j.Waste.SecondsF() / n
			s.MissSec += j.MissTime.SecondsF() / n
			s.SwitchSec += j.SwitchTime.SecondsF() / n
			s.AvgAlloc += j.AvgAlloc / n
			s.Reallocations += float64(j.Reallocations) / n
			s.PctAffinity += j.PctAffinity() / n
			s.IntervalMs += j.ReallocInterval().Millis() / n
		}
	}
	return sums
}

// Relative returns each job's mean response time under policy divided by
// its mean response time under baseline, for one mix.
func (cr *CompareResult) Relative(mixNumber int, policy, baseline string) ([]float64, error) {
	mix, ok := cr.Summaries[mixNumber]
	if !ok {
		return nil, fmt.Errorf("experiments: no mix #%d", mixNumber)
	}
	ps, ok := mix[policy]
	if !ok {
		return nil, fmt.Errorf("experiments: mix #%d has no policy %q", mixNumber, policy)
	}
	bs, ok := mix[baseline]
	if !ok {
		return nil, fmt.Errorf("experiments: mix #%d has no baseline %q", mixNumber, baseline)
	}
	out := make([]float64, len(ps))
	for i := range ps {
		out[i] = stats.Ratio(ps[i].MeanRT(), bs[i].MeanRT())
	}
	return out, nil
}

// Figure5Report renders response times of the given policies relative to
// Equipartition for every job in every mix of a compare result (the
// paper's Figure 5; with Dyn-Aff-NoPri in the policy list it also covers
// Figure 6). The result must include the Equipartition baseline.
func Figure5Report(res CompareCampaignResult, policies []string) (report.Table, error) {
	t := report.Table{
		Title:   "Figure 5 — response times relative to Equipartition",
		Headers: []string{"mix", "job"},
	}
	t.Headers = append(t.Headers, policies...)
	for _, mix := range res.Mixes {
		if res.rows(mix, "Equipartition") == nil {
			return report.Table{}, fmt.Errorf("experiments: mix #%d has no baseline %q", mix, "Equipartition")
		}
		cols := make([][]CompareCampaignRow, len(policies))
		for pi, p := range policies {
			if cols[pi] = res.rows(mix, p); cols[pi] == nil {
				return report.Table{}, fmt.Errorf("experiments: mix #%d has no policy %q", mix, p)
			}
		}
		for i, job := range cols[0] {
			row := []string{fmt.Sprintf("#%d", mix), fmt.Sprintf("%s-%d", job.App, i)}
			for pi := range policies {
				row = append(row, report.F(cols[pi][i].RelRT, 3))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Table3Report renders the affinity-influence table for one mix (the
// paper's Table 3 uses mix #5): %affinity, #reallocations, reallocation
// interval, and response time per job under each policy.
func Table3Report(res CompareCampaignResult, mixNumber int, policies []string) (report.Table, error) {
	t := report.Table{
		Title:   fmt.Sprintf("Table 3 — influence of affinity on scheduling (mix #%d)", mixNumber),
		Headers: []string{"metric"},
	}
	cols := make([][]CompareCampaignRow, len(policies))
	for pi, p := range policies {
		if cols[pi] = res.rows(mixNumber, p); cols[pi] == nil {
			return report.Table{}, fmt.Errorf("experiments: mix #%d has no policy %q", mixNumber, p)
		}
		for i, job := range cols[pi] {
			t.Headers = append(t.Headers, fmt.Sprintf("%s %s-%d", p, job.App, i))
		}
	}
	addRow := func(name string, get func(CompareCampaignRow) string) {
		row := []string{name}
		for _, jobs := range cols {
			for _, job := range jobs {
				row = append(row, get(job))
			}
		}
		t.AddRow(row...)
	}
	addRow("%affinity", func(r CompareCampaignRow) string { return report.Pct(r.PctAffinity) })
	addRow("#reallocations", func(r CompareCampaignRow) string { return report.F(r.Reallocations, 0) })
	addRow("realloc interval (ms)", func(r CompareCampaignRow) string { return report.F(r.IntervalMs, 0) })
	addRow("response time (s)", func(r CompareCampaignRow) string { return report.F(r.MeanRTSec, 1) })
	return t, nil
}

// Table4Report renders the average job response times of the given mixes
// under two policies (the paper's Table 4: Dyn-Aff vs Dyn-Aff-NoPri on
// the homogeneous mixes 1 and 4).
func Table4Report(res CompareCampaignResult, mixNumbers []int, policyA, policyB string) (report.Table, error) {
	t := report.Table{
		Title:   "Table 4 — average job response time, homogeneous workloads (s)",
		Headers: []string{"workload", policyA, policyB},
	}
	for _, n := range mixNumbers {
		mix, err := workload.MixByNumber(n)
		if err != nil {
			return report.Table{}, err
		}
		row := []string{mix.String()}
		for _, p := range []string{policyA, policyB} {
			jobs := res.rows(n, p)
			if jobs == nil {
				return report.Table{}, fmt.Errorf("experiments: mix #%d has no policy %q", n, p)
			}
			total := 0.0
			for _, job := range jobs {
				total += job.MeanRTSec
			}
			row = append(row, report.F(total/float64(len(jobs)), 2))
		}
		t.AddRow(row...)
	}
	return t, nil
}
