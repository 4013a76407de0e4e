package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// CampaignParams is the parameterization of one campaign — on the wire,
// in the CLIs and in process alike: the shared knobs plus the per-kind
// knobs of the individual drivers. The zero value of every field means
// "use the kind's default", so a minimal request like {"kind":"table1"}
// is valid.
//
// Params are normalized (all defaults made explicit, irrelevant fields
// zeroed) before being hashed into a result-cache key, so two requests
// that differ only in spelling — {} versus {"seed":1} — share a cache
// entry. Workers is always excluded from the key: campaign results are
// bitwise identical at every worker count (the internal/parallel
// contract), so concurrency must not fork the cache.
type CampaignParams struct {
	// Fast selects the scaled-down preset (reps 2, budget_sec 4,
	// app_scale 4, each unless set). Normalization folds its effects into
	// Replications/BudgetSec/AppScale and clears it.
	Fast bool `json:"fast,omitempty"`
	// Procs is the simulated machine's processor count (default 16).
	Procs int `json:"procs,omitempty"`
	// Replications per (mix, policy) cell (default 5; 2 under Fast; at
	// most maxReps).
	Replications int `json:"reps,omitempty"`
	// BudgetSec is the Table-1 per-run compute budget in seconds
	// (default 20; 4 under Fast; at most maxBudgetSec). Used by table1 and
	// future.
	BudgetSec float64 `json:"budget_sec,omitempty"`
	// AppScale shrinks applications for quick runs (default 1; 4 under
	// Fast).
	AppScale int `json:"app_scale,omitempty"`
	// Mix restricts compare to one workload mix (1-6, 0 = all six) and
	// selects the simulated mix for futuresim (default 5).
	Mix int `json:"mix,omitempty"`
	// Policies overrides the kind's default policy list, where the kind
	// has one (compare, future, futuresim).
	Policies []string `json:"policies,omitempty"`
	// MaxProduct bounds the future sweep's speed×cache axis (default 4096).
	MaxProduct float64 `json:"max_product,omitempty"`
	// Products lists the speed×cache points futuresim simulates
	// (default 1, 16, 64, 256, 1024).
	Products []float64 `json:"products,omitempty"`
	// Seed is the campaign root seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Engine selects the per-cell execution tier of the grid-shaped kinds
	// (compare, futuresim, and the comparison half of future): EngineSim,
	// EngineAnalytic, or EngineAuto; empty means EngineSim. Kinds without a
	// simulation grid always simulate and reject the other tiers. Engine is
	// part of the cache identity: analytic estimates and simulated results
	// never share a cache entry.
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
// the kind does not consume zeroed, validating the result. It is the one
// place campaign defaults and bounds live: a zero field takes the kind's
// default (the fast preset's, under Fast), a negative or oversized one is
// a *ParamError naming its wire field. Normalized params are the
// canonical identity of a campaign: hash them (minus Workers, which
// Normalize preserves but cache keys must zero) and two semantically
// identical requests collide onto one cache entry.
func (c Campaign) Normalize(p CampaignParams) (CampaignParams, error) {
	switch {
	case p.Procs < 0:
		return CampaignParams{}, &ParamError{Field: "params.procs", Msg: "must be >= 0"}
	case p.Replications < 0:
		return CampaignParams{}, &ParamError{Field: "params.reps", Msg: "must be >= 0"}
	case p.Replications > maxReps:
		return CampaignParams{}, &ParamError{Field: "params.reps", Msg: fmt.Sprintf("must be <= %d", maxReps)}
	case p.BudgetSec < 0:
		return CampaignParams{}, &ParamError{Field: "params.budget_sec", Msg: "must be >= 0"}
	case p.BudgetSec > maxBudgetSec:
		return CampaignParams{}, &ParamError{Field: "params.budget_sec", Msg: fmt.Sprintf("must be <= %g", float64(maxBudgetSec))}
	case p.AppScale < 0:
		return CampaignParams{}, &ParamError{Field: "params.app_scale", Msg: "must be >= 0"}
	case p.Workers < 0:
		return CampaignParams{}, &ParamError{Field: "params.workers", Msg: "must be >= 0"}
	}
	engine, err := normalizeEngine(p.Engine)
	if err != nil {
		return CampaignParams{}, &ParamError{Field: "params.engine", Msg: err.Error()}
	}
	// The paper's campaign: 16 processors, 5 replications, a 20 s Table-1
	// budget, full-size applications. The fast preset shrinks the
	// applications and cuts the replications and the budget.
	n := CampaignParams{Procs: 16, Replications: 5, AppScale: 1, Seed: 1, Workers: p.Workers}
	budget := 20.0
	if p.Fast {
		n.Replications, n.AppScale, budget = 2, 4, 4
	}
	if p.Procs > 0 {
		n.Procs = p.Procs
	}
	if p.Replications > 0 {
		n.Replications = p.Replications
	}
	if p.BudgetSec > 0 {
		// The cells run simtime.Seconds(budget): whole nanoseconds.
		if budget = simtime.Seconds(p.BudgetSec).SecondsF(); budget <= 0 {
			return CampaignParams{}, &ParamError{Field: "params.budget_sec", Msg: "must be at least 1 ns"}
		}
	}
	if p.AppScale > 0 {
		n.AppScale = p.AppScale
	}
	if p.Seed != 0 {
		n.Seed = p.Seed
	}
	// The engine tier only exists on the kinds with a simulation grid; the
	// others always simulate and must not silently accept (and then ignore)
	// a request for the analytic tier. ValidateEngine is the single gate —
	// the CLIs call it too, so a flag and a request body fail identically.
	if err := ValidateEngine(c.Kind, engine); err != nil {
		return CampaignParams{}, err
	}
	switch c.Kind {
	case "compare", "future", "futuresim":
		n.Engine = engine
	}
	// Per-kind knobs: only the fields the kind's driver reads survive.
	switch c.Kind {
	case "table1":
		n.BudgetSec = budget
		n.Procs = 0        // the protocol measures on one processor
		n.Replications = 0 // table1 has no replication axis
		n.AppScale = 0     // measurement patterns are not app-scaled
	case "characterize":
		n.Replications = 0 // each application is characterized once
	case "relatedwork":
	case "compare":
		if p.Mix != 0 {
			if _, err := workload.MixByNumber(p.Mix); err != nil {
				return CampaignParams{}, &ParamError{Field: "params.mix", Msg: err.Error()}
			}
			n.Mix = p.Mix
		}
		n.Policies = p.Policies
		if len(n.Policies) == 0 {
			n.Policies = defaultComparePolicies()
		}
	case "future":
		n.BudgetSec = budget
		n.Policies = p.Policies
		if len(n.Policies) == 0 {
			n.Policies = defaultDynamicPolicies()
		}
		n.MaxProduct = p.MaxProduct
		if n.MaxProduct == 0 {
			n.MaxProduct = 4096
		}
		if n.MaxProduct < 1 {
			return CampaignParams{}, &ParamError{Field: "params.max_product",
				Msg: fmt.Sprintf("must be >= 1, got %v", n.MaxProduct)}
		}
	case "futuresim":
		n.Mix = p.Mix
		if n.Mix == 0 {
			n.Mix = 5
		}
		if _, err := workload.MixByNumber(n.Mix); err != nil {
			return CampaignParams{}, &ParamError{Field: "params.mix", Msg: err.Error()}
		}
		n.Policies = p.Policies
		if len(n.Policies) == 0 {
			n.Policies = defaultDynamicPolicies()
		}
		n.Products = p.Products
		if len(n.Products) == 0 {
			n.Products = []float64{1, 16, 64, 256, 1024}
		}
		for i, prod := range n.Products {
			if prod < 1 {
				return CampaignParams{}, &ParamError{Field: fmt.Sprintf("params.products[%d]", i),
					Msg: fmt.Sprintf("product %v below 1", prod)}
			}
		}
	default:
		return CampaignParams{}, fmt.Errorf("experiments: unknown campaign kind %q", c.Kind)
	}
	for i, pol := range n.Policies {
		if _, ok := core.ByName(pol); !ok {
			return CampaignParams{}, &ParamError{Field: fmt.Sprintf("params.policies[%d]", i),
				Msg: fmt.Sprintf("unknown policy %q", pol)}
		}
	}
	return n, nil
}

func defaultComparePolicies() []string {
	return []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"}
}

func defaultDynamicPolicies() []string {
	return []string{"Dynamic", "Dyn-Aff", "Dyn-Aff-Delay"}
}

// campaignRegistry lists every campaign kind, in the order listings show
// them (paper order).
var campaignRegistry = []Campaign{
	{
		Kind:        "characterize",
		Description: "Figures 2-4: per-application parallelism characteristics, measured in isolation",
	},
	{
		Kind:        "table1",
		Description: "Table 1: per-switch cache penalties P^A and P^NA by application and rescheduling interval",
	},
	{
		Kind:        "compare",
		Description: "Figures 5-6, Tables 3-4: policy comparison across the six workload mixes",
	},
	{
		Kind:        "future",
		Description: "Figures 8-13: analytic model sweep over future speed*cache products",
	},
	{
		Kind:        "futuresim",
		Description: "Section 7 validation: directly simulated scaled machines vs the analytic model",
	},
	{
		Kind:        "relatedwork",
		Description: "Section 8: affinity gains under time sharing vs space sharing",
	},
}

// Campaigns returns the registered campaigns in listing order.
func Campaigns() []Campaign {
	out := make([]Campaign, len(campaignRegistry))
	copy(out, campaignRegistry)
	return out
}

// CampaignByKind looks a campaign up by its wire name.
func CampaignByKind(kind string) (Campaign, bool) {
	for _, c := range campaignRegistry {
		if c.Kind == kind {
			return c, true
		}
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
