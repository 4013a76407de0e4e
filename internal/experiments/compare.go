package experiments

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/workload"
)

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
