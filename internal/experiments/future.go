package experiments

import (
	"fmt"

	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// ScenarioKey identifies one extrapolation scenario: one application type
// within one workload mix (the paper's Figures 8–13 are one figure per
// workload, plotting a representative application).
type ScenarioKey struct {
	Mix int
	App string
}

// String renders the key like the paper's figure captions
// ("wkload5 - GRAVITY").
func (k ScenarioKey) String() string { return fmt.Sprintf("wkload%d - %s", k.Mix, k.App) }

// FutureScenarios extracts model parameters from a compare result's rows
// and the Table-1 penalty measurements, producing one model.Scenario per
// (mix, application type) — the Section 7.3 procedure:
//
//   - #reallocations, %affinity, waste, and average allocation come
//     directly from the measured job metrics, averaged over the jobs of
//     the type; the response time is the type's first job's;
//   - P^A and P^NA come from the Table-1 cell at opts.ExtractionQ (or, when
//     that is zero, at the Q nearest the jobs' observed reallocation
//     interval), with P^A averaged over the other applications in the mix;
//   - work is backed out of equation (1) so that the model reproduces the
//     measured response time exactly at speed = cache = 1.
//
// opts supplies the machine (its switch path) and the extraction interval
// the result was run with.
func FutureScenarios(res CompareCampaignResult, t1 measure.Table1, opts Options) (map[ScenarioKey]model.Scenario, error) {
	out := make(map[ScenarioKey]model.Scenario)
	switchSec := opts.Machine.SwitchPath.SecondsF()
	for _, mix := range res.Mixes {
		// Application types present in this mix, for P^A averaging.
		var present []string
		for _, job := range res.rows(mix, res.Policies[0]) {
			present = append(present, job.App)
		}
		for _, app := range uniqueStrings(present) {
			key := ScenarioKey{Mix: mix, App: app}
			sc := model.Scenario{
				Name:     key.String(),
				Baseline: "Equipartition",
				Policies: make(map[string]model.Params),
			}
			for _, pol := range res.Policies {
				// Average jobs of this application type.
				var agg CompareCampaignRow
				n := 0
				for _, job := range res.rows(mix, pol) {
					if job.App != app {
						continue
					}
					if n == 0 {
						agg.MeanRTSec = job.MeanRTSec
					}
					n++
					agg.WasteSec += job.WasteSec
					agg.AvgAlloc += job.AvgAlloc
					agg.Reallocations += job.Reallocations
					agg.PctAffinity += job.PctAffinity
					agg.IntervalMs += job.IntervalMs
				}
				if n == 0 {
					continue
				}
				fn := float64(n)
				agg.WasteSec /= fn
				agg.AvgAlloc /= fn
				agg.Reallocations /= fn
				agg.PctAffinity /= fn
				agg.IntervalMs /= fn

				intervening := otherApps(present, app)
				q := opts.ExtractionQ
				if q == 0 {
					q = simtime.Duration(agg.IntervalMs * float64(simtime.Millisecond))
				}
				pa, pna := PenaltyFor(t1, app, intervening, q)
				rt := agg.MeanRTSec
				penalty := agg.PctAffinity*pa + (1-agg.PctAffinity)*pna
				work := rt*agg.AvgAlloc - agg.WasteSec - agg.Reallocations*(switchSec+penalty)
				if work <= 0 {
					work = rt * agg.AvgAlloc * 0.01 // degenerate; keep the model valid
				}
				p := model.Params{
					Work:          work,
					Waste:         agg.WasteSec,
					Reallocations: agg.Reallocations,
					ReallocTime:   switchSec,
					PctAffinity:   agg.PctAffinity,
					PA:            pa,
					PNA:           pna,
					AvgAlloc:      agg.AvgAlloc,
				}
				if err := p.Validate(); err != nil {
					return nil, fmt.Errorf("experiments: %s/%s: %w", key, pol, err)
				}
				sc.Policies[pol] = p
			}
			if err := sc.Validate(); err != nil {
				return nil, err
			}
			out[key] = sc
		}
	}
	return out, nil
}

func uniqueStrings(in []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func otherApps(present []string, app string) []string {
	var out []string
	for _, s := range uniqueStrings(present) {
		if s != app {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		// Homogeneous mix: the intervening tasks are instances of the
		// same application.
		out = []string{app}
	}
	return out
}

// FigureApp selects the representative application plotted for each mix in
// the paper's Figures 8–13.
func FigureApp(mix workload.Mix) string {
	switch {
	case mix.Gravity > 0 && mix.Number >= 3:
		return "GRAVITY"
	case mix.Matrix > 0:
		return "MATRIX"
	default:
		return "MVA"
	}
}

// FutureCharts renders a future result as one chart per mix: the given
// policies' relative response times against the speed×cache product for
// the mix's representative application (Figures 8–13, numbered in mix
// order over the mixes the result covers).
func FutureCharts(res FutureCampaignResult, policies []string) ([]report.Chart, error) {
	var charts []report.Chart
	for _, sc := range res.Scenarios {
		mix, err := workload.MixByNumber(sc.Mix)
		if err != nil {
			return nil, err
		}
		if sc.App != FigureApp(mix) {
			continue
		}
		key := ScenarioKey{Mix: sc.Mix, App: sc.App}
		ch := report.Chart{
			Title:  fmt.Sprintf("Figure %d — relative response times, %s", 8+len(charts), key),
			XLabel: "processor-speed x cache-size (log2)",
			YLabel: "RT / RT(Equipartition)",
			Xs:     res.Products,
			LogX:   true,
			RefY:   1.0,
			RefYOn: true,
		}
		for _, pol := range policies {
			for _, sw := range sc.Policies {
				if sw.Policy == pol {
					ch.Series = append(ch.Series, report.Series{Name: pol, Ys: sw.RelRT})
					break
				}
			}
		}
		charts = append(charts, ch)
	}
	return charts, nil
}
