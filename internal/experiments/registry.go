package experiments

import (
	"fmt"
	"sort"

	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/simtime"
)

// CampaignParams is the parameterization of one campaign — on the wire,
// in the CLIs and in process alike: the shared knobs plus the per-kind
// knobs of the individual drivers. The zero value of every field means
// "use the kind's default" (ParamSchema lists each kind's defaults and
// bounds), so a minimal request like {"kind":"table1"} is valid.
//
// Params are normalized (all defaults made explicit, irrelevant fields
// zeroed) before being hashed into a result-cache key, so two requests
// that differ only in spelling — {} versus {"seed":1} — share a cache
// entry. Workers is always excluded from the key: campaign results are
// bitwise identical at every worker count (the internal/parallel
// contract), so concurrency must not fork the cache.
type CampaignParams struct {
	// Fast selects the scaled-down preset (smaller applications, fewer
	// replications, a shorter budget, each unless set); Normalize clears it.
	Fast bool `json:"fast,omitempty"`
	// Procs is the simulated machine's processor count.
	Procs int `json:"procs,omitempty"`
	// Replications per (mix, policy) cell.
	Replications int `json:"reps,omitempty"`
	// BudgetSec is the Table-1 per-run compute budget in seconds.
	BudgetSec float64 `json:"budget_sec,omitempty"`
	// AppScale shrinks applications for quick runs.
	AppScale int `json:"app_scale,omitempty"`
	// Mix is compare's one workload mix (0 = all six), futuresim's mix.
	Mix int `json:"mix,omitempty"`
	// Policies is the kind's policy list, in result order.
	Policies []string `json:"policies,omitempty"`
	// MaxProduct bounds the future sweep's speed×cache axis.
	MaxProduct float64 `json:"max_product,omitempty"`
	// Products lists the speed×cache points futuresim simulates.
	Products []float64 `json:"products,omitempty"`
	// Seed is the campaign root seed.
	Seed uint64 `json:"seed,omitempty"`
	// Engine selects the per-cell execution tier of the grid-shaped kinds:
	// EngineSim, EngineAnalytic or EngineAuto. Kinds without a simulation
	// grid always simulate and reject the other tiers. Engine is part of
	// the cache identity: analytic and simulated results never share one.
	Engine string `json:"engine,omitempty"`
	// Workers bounds concurrent simulation cells (0 = all CPUs). Never
	// part of the cache key.
	Workers int `json:"workers,omitempty"`
}

// maxBudgetSec bounds budget_sec at five times the paper's 20 s. A Table-1
// campaign holds six reference streams of budget/5µs 4-byte references
// each (480 MB at the bound), so the bound keeps one request from
// exhausting the daemon's memory; it also keeps every stream's line
// indices within 32 bits.
const maxBudgetSec = 100

// maxProcs bounds procs at 64 times the paper's 16 processors: every
// policy event walks all processors, and the scheduler's task ids fit
// fewer than 2^20, so past it a request's cells crawl or fail at run time.
const maxProcs = 1024

// maxReps bounds reps. Each cell holds one result per replication, so an
// unbounded count lets one request exhaust the daemon's memory before a
// single run starts; the paper's campaigns use 5.
const maxReps = 100

// Campaign is one registered campaign kind: a wire name and a human
// description. Every experiment the repo can run is reachable through
// Run(ctx, kind, params); the service, the CLIs and any future batch or
// queue front end need no per-kind code.
type Campaign struct {
	// Kind is the wire name ("table1", "compare", ...).
	Kind string
	// Description is a one-line summary for listings.
	Description string
}

// Normalize returns p with every default made explicit and every field
// the kind does not list zeroed, validating the result against the
// kind's parameter specs: a zero field takes the kind's default (the fast
// preset's, under Fast), an out-of-range one is a *ParamError naming its
// wire field. Normalized params are the canonical identity of a campaign:
// hash them (minus Workers, which Normalize preserves but cache keys must
// zero) and two semantically identical requests share one cache entry.
func (c Campaign) Normalize(p CampaignParams) (CampaignParams, error) {
	k := kindByName(c.Kind)
	if k == nil {
		return CampaignParams{}, fmt.Errorf("experiments: unknown campaign kind %q", c.Kind)
	}
	var n CampaignParams
	for _, err := range [...]error{
		number(k, procsParam, p.Procs, &n.Procs, p.Fast),
		number(k, seedParam, p.Seed, &n.Seed, p.Fast),
		number(k, workersParam, p.Workers, &n.Workers, p.Fast),
		number(k, repsParam, p.Replications, &n.Replications, p.Fast),
		number(k, appScaleParam, p.AppScale, &n.AppScale, p.Fast),
		number(k, budgetParam, p.BudgetSec, &n.BudgetSec, p.Fast),
		number(k, compareMixParam, p.Mix, &n.Mix, p.Fast),
		number(k, maxProductParam, p.MaxProduct, &n.MaxProduct, p.Fast),
		list(k, comparePoliciesParam, p.Policies, &n.Policies),
		list(k, productsParam, p.Products, &n.Products),
		ValidateEngine(c.Kind, p.Engine),
	} {
		if err != nil {
			return CampaignParams{}, err
		}
	}
	if k.param(engineParam.Name) != nil {
		n.Engine, _ = normalizeEngine(p.Engine) // ValidateEngine accepted it
	}
	return n, nil
}

// kindSpec is one registered campaign kind: everything the kind declares,
// from its listing to the parameters it consumes to its cell grid.
type kindSpec struct {
	Campaign
	// params are the parameters the kind consumes, in schema order; every
	// other field of its normalized params is zero.
	params []*param
	// grid plans the kind's cells over normalized params.
	grid func(np CampaignParams) (grid, error)
}

// param returns the kind's parameter of the wire name, or nil if the
// kind does not consume it.
func (k *kindSpec) param(name string) *param {
	for _, f := range k.params {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// kinds lists every campaign kind, in the order listings show them
// (paper order). Adding a kind is one entry here plus its grid planner.
var kinds = []kindSpec{
	// Each application is characterized once.
	{Campaign{"characterize", "Figures 2-4: per-application parallelism characteristics, measured in isolation"},
		[]*param{procsParam, seedParam, workersParam, appScaleParam}, characterizeGrid},
	// The protocol measures unscaled patterns on one processor, once.
	{Campaign{"table1", "Table 1: per-switch cache penalties P^A and P^NA by application and rescheduling interval"},
		[]*param{seedParam, workersParam, budgetParam}, table1Grid},
	{Campaign{"compare", "Figures 5-6, Tables 3-4: policy comparison across the six workload mixes"},
		[]*param{procsParam, seedParam, workersParam, repsParam, appScaleParam,
			compareMixParam, comparePoliciesParam, engineParam}, compareGrid},
	{Campaign{"future", "Figures 8-13: analytic model sweep over future speed*cache products"},
		[]*param{procsParam, seedParam, workersParam, repsParam, appScaleParam, budgetParam,
			dynamicPoliciesParam, maxProductParam, engineParam}, futureGrid},
	{Campaign{"futuresim", "Section 7 validation: directly simulated scaled machines vs the analytic model"},
		[]*param{procsParam, seedParam, workersParam, repsParam, appScaleParam,
			futureSimMixParam, dynamicPoliciesParam, productsParam, engineParam}, futureSimGrid},
	{Campaign{"relatedwork", "Section 8: affinity gains under time sharing vs space sharing"},
		[]*param{procsParam, seedParam, workersParam, repsParam, appScaleParam}, relatedWorkGrid},
}

// kindByName returns the registered kind of the wire name, or nil.
func kindByName(name string) *kindSpec {
	for i := range kinds {
		if kinds[i].Kind == name {
			return &kinds[i]
		}
	}
	return nil
}

// Campaigns returns the registered campaigns in listing order.
func Campaigns() []Campaign {
	out := make([]Campaign, len(kinds))
	for i, k := range kinds {
		out[i] = k.Campaign
	}
	return out
}

// CampaignByKind looks a campaign up by its wire name.
func CampaignByKind(kind string) (Campaign, bool) {
	if k := kindByName(kind); k != nil {
		return k.Campaign, true
	}
	return Campaign{}, false
}

// ---- JSON result shapes ------------------------------------------------
//
// Campaign results are explicit wire structs rather than the drivers'
// internal types: internal types carry simulation-unit fields and map
// keys that are not strings. The wire
// structs hold only strings, numbers, slices and string-keyed maps, so
// report.CanonicalJSON over them is total and byte-stable.

// Table1CampaignResult is the table1 kind's result.
type Table1CampaignResult struct {
	// QsMs lists the rescheduling intervals in milliseconds, ascending.
	QsMs []float64 `json:"qs_ms"`
	// Apps lists the measured applications in protocol order.
	Apps []string `json:"apps"`
	// Cells maps Q (formatted as in QsMs, e.g. "400") then measured
	// application to its penalties.
	Cells map[string]map[string]Table1CampaignCell `json:"cells"`
}

// Table1CampaignCell is one (Q, application) cell: penalties in
// microseconds per switch, as in the paper's Table 1.
type Table1CampaignCell struct {
	PNAMicros float64            `json:"pna_us"`
	PAMicros  map[string]float64 `json:"pa_us"`
}

// Table1 rebuilds the measure.Table1 view of the result — the penalties
// PenaltyFor and FutureScenarios read. The conversion is exact (see
// fromWire), so the view holds the measured ticks.
func (r Table1CampaignResult) Table1() measure.Table1 {
	t1 := measure.Table1{
		Apps:  r.Apps,
		Cells: make(map[simtime.Duration]map[string]measure.Penalties, len(r.QsMs)),
	}
	for _, ms := range r.QsMs {
		q := fromWire(ms, simtime.Millisecond)
		t1.Qs = append(t1.Qs, q)
		cells := make(map[string]measure.Penalties, len(r.Apps))
		for app, c := range r.Cells[fmt.Sprintf("%g", ms)] {
			pen := measure.Penalties{Measured: app, Q: q, PNA: fromWire(c.PNAMicros, simtime.Microsecond),
				PA: make(map[string]simtime.Duration, len(c.PAMicros))}
			for iv, us := range c.PAMicros {
				pen.PA[iv] = fromWire(us, simtime.Microsecond)
			}
			cells[app] = pen
		}
		t1.Cells[q] = cells
	}
	return t1
}

// CharacterizeCampaignResult is the characterize kind's result.
type CharacterizeCampaignResult struct {
	Apps []AppCharacter `json:"apps"`
}

// CompareCampaignRow is one (mix, policy, job) outcome of the compare
// kind, in replication-averaged units.
type CompareCampaignRow struct {
	Mix       int     `json:"mix"`
	Policy    string  `json:"policy"`
	Job       int     `json:"job"`
	App       string  `json:"app"`
	MeanRTSec float64 `json:"mean_rt_sec"`
	// RelRT is MeanRTSec divided by the same job's Equipartition mean;
	// 0 when Equipartition is not in the policy list.
	RelRT         float64 `json:"rel_rt,omitempty"`
	WorkSec       float64 `json:"work_sec"`
	WasteSec      float64 `json:"waste_sec"`
	MissSec       float64 `json:"miss_sec"`
	SwitchSec     float64 `json:"switch_sec"`
	AvgAlloc      float64 `json:"avg_alloc"`
	Reallocations float64 `json:"reallocations"`
	PctAffinity   float64 `json:"pct_affinity"`
	IntervalMs    float64 `json:"realloc_interval_ms"`
}

// CompareCampaignResult is the compare kind's result: rows ordered by
// (mix, policy, job) with policies in request order.
type CompareCampaignResult struct {
	Mixes    []int                `json:"mixes"`
	Policies []string             `json:"policies"`
	Rows     []CompareCampaignRow `json:"rows"`
}

// rows returns the result's rows for one (mix, policy) cell, in job
// order, or nil if the result has no such cell.
func (r CompareCampaignResult) rows(mix int, policy string) []CompareCampaignRow {
	for i, row := range r.Rows {
		if row.Mix != mix || row.Policy != policy {
			continue
		}
		// The cell's rows are contiguous and numbered from job 0, so the
		// next cell begins where the numbering restarts.
		n := 1
		for i+n < len(r.Rows) && r.Rows[i+n].Job == n {
			n++
		}
		return r.Rows[i : i+n]
	}
	return nil
}

// FutureCampaignSweep is one policy's model sweep within one scenario.
type FutureCampaignSweep struct {
	Policy string `json:"policy"`
	// RelRT[i] is the predicted relative response time at Products[i].
	RelRT []float64 `json:"rel_rt"`
	// Crossover is the speed×cache product at which the policy's relative
	// RT reaches 1.0 (0 = never within the sweep).
	Crossover float64 `json:"crossover"`
}

// FutureCampaignScenario is one (mix, application) scenario of the future
// kind.
type FutureCampaignScenario struct {
	Mix      int                   `json:"mix"`
	App      string                `json:"app"`
	Policies []FutureCampaignSweep `json:"policies"`
}

// FutureCampaignResult is the future kind's result: the analytic model's
// relative response times over the product axis, per scenario.
type FutureCampaignResult struct {
	Products  []float64                `json:"products"`
	Scenarios []FutureCampaignScenario `json:"scenarios"`
}

// withBaseline returns policies with Equipartition prepended unless it is
// already present: the future model needs the baseline's summaries, but
// listing it twice would simulate its cells — the most expensive in the
// sweep — twice over.
func withBaseline(policies []string) []string {
	for _, pol := range policies {
		if pol == "Equipartition" {
			return policies
		}
	}
	return append([]string{"Equipartition"}, policies...)
}

// FutureSweep sweeps every scenario's policies (those of the given list
// the scenario has) over the product axis 1..maxProduct, two points per
// doubling, into the future kind's wire shape, scenarios sorted by
// (mix, app).
func FutureSweep(scen map[ScenarioKey]model.Scenario, policies []string, maxProduct float64) (FutureCampaignResult, error) {
	products := model.Products(maxProduct, 2)
	keys := make([]ScenarioKey, 0, len(scen))
	for k := range scen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Mix != keys[j].Mix {
			return keys[i].Mix < keys[j].Mix
		}
		return keys[i].App < keys[j].App
	})
	out := FutureCampaignResult{Products: products}
	for _, k := range keys {
		sc := scen[k]
		entry := FutureCampaignScenario{Mix: k.Mix, App: k.App}
		for _, pol := range policies {
			if _, ok := sc.Policies[pol]; !ok {
				continue
			}
			ys, err := sc.SweepProduct(pol, products)
			if err != nil {
				return FutureCampaignResult{}, err
			}
			cross, err := sc.Crossover(pol, products)
			if err != nil {
				return FutureCampaignResult{}, err
			}
			entry.Policies = append(entry.Policies, FutureCampaignSweep{
				Policy: pol, RelRT: ys, Crossover: cross,
			})
		}
		out.Scenarios = append(out.Scenarios, entry)
	}
	return out, nil
}

// FutureSimCampaignPoint is one simulated product point.
type FutureSimCampaignPoint struct {
	Product float64 `json:"product"`
	// SimRel maps policy to the simulated relative response time.
	SimRel map[string]float64 `json:"sim_rel"`
}

// FutureSimCampaignResult is the futuresim kind's result.
type FutureSimCampaignResult struct {
	Mix      int                      `json:"mix"`
	Policies []string                 `json:"policies"`
	Points   []FutureSimCampaignPoint `json:"points"`
}

// RelatedWorkCampaignResult is the relatedwork kind's result; the inner
// type already exposes only JSON-safe fields.
type RelatedWorkCampaignResult struct {
	Result *RelatedWorkResult `json:"result"`
}
