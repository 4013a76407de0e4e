package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/measure"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file decomposes every registered campaign into cells: the
// independently executable, independently cacheable units of its grid.
// Each cell's bytes depend only on the parameters captured in its key
// material — never on the rest of the grid — so overlapping campaigns
// (a superset policy list, a second kind sharing a sub-grid) address the
// same cache entries, and a merge over any mix of fresh and cached
// partials is byte-identical to a run that executed every cell
// (testdata/campaign_bodies.sha256 pins those bytes).
//
// The invariants every per-kind builder maintains:
//
//  1. Cell order is the kind's grid order, so the merge can reassemble
//     by index.
//  2. Partials carry enough raw precision for the merge to perform each
//     lossy conversion (simtime.Duration -> float microseconds, ratio
//     against a baseline) exactly once. Replication means are folded in
//     replication order inside the cell.
//  3. Key params exclude Workers (results are bitwise identical at every
//     worker count) and exclude the grid lists themselves (a cell's
//     identity is its own coordinates, so supersets reuse subsets).

// Run normalizes p, plans the campaign with Cells, executes every cell on
// p.Workers workers, and merges the canonical-JSON partials into the
// kind's wire result — the one way to run a campaign in process. The
// result is bitwise identical at every worker count and encodes (under
// report.CanonicalJSON) to the bytes the service serves for the same
// params. If ctx carries an obs collector, per-run simulation stats fold
// into it out of band: each cell collects its own, and the cells' stats
// fold in grid order once all have run, so the totals are identical at
// every worker count. A cancelled ctx stops scheduling new cells
// promptly and returns ctx's error.
func Run(ctx context.Context, kind string, p CampaignParams) (any, error) {
	plan, err := Cells(kind, p)
	if err != nil {
		return nil, err
	}
	collector := obs.CollectorFrom(ctx)
	cellStats := make([]*obs.CampaignStats, len(plan.Cells))
	partials := make([][]byte, len(plan.Cells))
	err = parallel.ForEach(ctx, plan.Params.Workers, len(plan.Cells), func(ctx context.Context, i int) error {
		if collector != nil {
			cellStats[i] = obs.NewCampaignStats()
			ctx = obs.WithCollector(ctx, cellStats[i])
		}
		var err error
		partials[i], err = plan.RunBody(ctx, i)
		return err
	})
	if err != nil {
		return nil, err
	}
	parallel.Fold(cellStats, func(_ int, s *obs.CampaignStats) { collector.Merge(s) })
	return plan.Merge(ctx, partials)
}

// Cell is one unit of a sharded campaign.
type Cell struct {
	// ID names the cell within its plan, e.g. "mix=5/policy=Dyn-Aff".
	ID string
	// KeyKind is the cell's cache namespace ("cell/compare", ...).
	// Kinds that share cell shapes share namespaces: a future campaign's
	// policy cells are compare cells, so a prior compare run seeds them.
	KeyKind string
	// KeyParams is the canonical JSON of every parameter that can
	// influence the cell's bytes, ready to hash into a cache key.
	KeyParams []byte
	// Engine is the resolved execution tier of this cell — EngineSim or
	// EngineAnalytic, never EngineAuto: auto resolves against the promotion
	// envelope at planning time, so cache keys (which include Engine for
	// the grid-shaped kinds) carry only concrete tiers and an auto cell
	// shares its entry with the same cell requested explicitly. Empty for
	// kinds without an engine choice.
	Engine string

	run func(ctx context.Context) (any, error)
}

// Run executes the cell. The result is JSON-marshalable, byte-stable
// under report.CanonicalJSON, and bitwise identical at every worker
// count. If ctx carries an obs collector, per-run simulation stats fold
// into it out of band.
func (c *Cell) Run(ctx context.Context) (any, error) { return c.run(ctx) }

// CellPlan is a campaign split into cells plus the deterministic merge
// that reassembles the campaign's wire result.
type CellPlan struct {
	Kind string
	// Params is the campaign's normalized parameterization.
	Params CampaignParams
	// Cells in the kind's grid order.
	Cells []Cell

	merge func(ctx context.Context, partials []json.RawMessage) (any, error)
}

// Merge reassembles the campaign result from one canonical-JSON partial
// per cell, in Cells order. The output marshals (under
// report.CanonicalJSON) to exactly the bytes Run produces for the same
// params, whichever cells came from a cache.
func (p *CellPlan) Merge(ctx context.Context, partials [][]byte) (any, error) {
	if len(partials) != len(p.Cells) {
		return nil, fmt.Errorf("experiments: %s: %d partials for %d cells", p.Kind, len(partials), len(p.Cells))
	}
	raws := make([]json.RawMessage, len(partials))
	for i, b := range partials {
		if len(b) == 0 {
			return nil, fmt.Errorf("experiments: %s: missing partial for cell %s", p.Kind, p.Cells[i].ID)
		}
		raws[i] = json.RawMessage(b)
	}
	return p.merge(ctx, raws)
}

// RunBody executes cell i and returns its canonical-JSON partial, the
// bytes Merge consumes and the result tiers file. CPU profile samples
// carry the campaign kind and the cell as pprof labels.
func (p *CellPlan) RunBody(ctx context.Context, i int) ([]byte, error) {
	c := &p.Cells[i]
	var res any
	var err error
	pprof.Do(ctx, pprof.Labels("campaign", p.Kind, "cell", c.ID), func(ctx context.Context) {
		res, err = c.Run(ctx)
	})
	if err != nil {
		return nil, err
	}
	body, err := report.CanonicalJSON(res)
	if err != nil {
		return nil, fmt.Errorf("encode cell %s: %w", c.ID, err)
	}
	return body, nil
}

// Cells normalizes p and splits the campaign into its cell plan.
func Cells(kind string, p CampaignParams) (*CellPlan, error) {
	c, ok := CampaignByKind(kind)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown campaign kind %q", kind)
	}
	np, err := c.Normalize(p)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "characterize":
		return characterizeCellPlan(np)
	case "table1":
		return table1CellPlan(np)
	case "compare":
		return compareCellPlan(np)
	case "future":
		return futureCellPlan(np)
	case "futuresim":
		return futureSimCellPlan(np)
	case "relatedwork":
		return relatedWorkCellPlan(np)
	}
	return nil, fmt.Errorf("experiments: campaign kind %q has no cell decomposition", kind)
}

// decodeParts unmarshals one partial per cell into the kind's partial
// type.
func decodeParts[T any](raws []json.RawMessage) ([]T, error) {
	out := make([]T, len(raws))
	for i, r := range raws {
		if err := json.Unmarshal(r, &out[i]); err != nil {
			return nil, fmt.Errorf("experiments: decode cell partial %d: %w", i, err)
		}
	}
	return out, nil
}

func cellKey(v any) ([]byte, error) { return report.CanonicalJSON(v) }

// ---- characterize ------------------------------------------------------

// characterizeCellKey is the cache identity of one isolated-application
// characterization. AppScale changes the application itself, Procs the
// machine it runs on, Seed every random draw.
type characterizeCellKey struct {
	Procs    int    `json:"procs"`
	AppScale int    `json:"app_scale"`
	Seed     uint64 `json:"seed"`
	App      string `json:"app"`
}

func characterizeCellPlan(np CampaignParams) (*CellPlan, error) {
	opts, err := np.options()
	if err != nil {
		return nil, err
	}
	apps := characterizeApps(opts)
	plan := &CellPlan{Kind: "characterize", Params: np}
	for i := range apps {
		i := i
		key, err := cellKey(characterizeCellKey{
			Procs: np.Procs, AppScale: np.AppScale, Seed: np.Seed, App: apps[i].Name,
		})
		if err != nil {
			return nil, err
		}
		plan.Cells = append(plan.Cells, Cell{
			ID:        "app=" + apps[i].Name,
			KeyKind:   "cell/characterize",
			KeyParams: key,
			run: func(ctx context.Context) (any, error) {
				o, err := np.optionsCtx(ctx)
				if err != nil {
					return nil, err
				}
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				ch, st, err := characterizeApp(o, characterizeApps(o)[i])
				if err != nil {
					return nil, err
				}
				if o.Stats != nil {
					o.Stats.Add("Equipartition", st)
				}
				return ch, nil
			},
		})
	}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		chars, err := decodeParts[AppCharacter](raws)
		if err != nil {
			return nil, err
		}
		return CharacterizeCampaignResult{Apps: chars}, nil
	}
	return plan, nil
}

// ---- table1 ------------------------------------------------------------

// table1CellKey is the cache identity of one (Q, measured application)
// penalty measurement. Procs is absent: the protocol always measures on
// a single processor.
type table1CellKey struct {
	BudgetSec float64 `json:"budget_sec"`
	Seed      uint64  `json:"seed"`
	QMs       float64 `json:"q_ms"`
	App       string  `json:"app"`
}

// table1CellPartial carries one cell's penalties as raw simtime ticks,
// not float microseconds: Duration -> Micros() is a lossy float
// division, so the merge performs it exactly once.
type table1CellPartial struct {
	PNARaw int64            `json:"pna_raw"`
	PARaw  map[string]int64 `json:"pa_raw"`
}

func newTable1Partial(pen measure.Penalties) table1CellPartial {
	part := table1CellPartial{
		PNARaw: int64(pen.PNA),
		PARaw:  make(map[string]int64, len(pen.PA)),
	}
	for iv, d := range pen.PA {
		part.PARaw[iv] = int64(d)
	}
	return part
}

// mergeTable1 assembles the table1 result from its cells' partials, laid
// out q-major and application-minor.
func mergeTable1(qs []simtime.Duration, names []string, parts []table1CellPartial) Table1CampaignResult {
	out := Table1CampaignResult{
		Apps:  append([]string(nil), names...),
		Cells: make(map[string]map[string]Table1CampaignCell, len(qs)),
	}
	for qi, q := range qs {
		out.QsMs = append(out.QsMs, q.Millis())
		cells := make(map[string]Table1CampaignCell, len(names))
		for pi, app := range names {
			part := parts[qi*len(names)+pi]
			cell := Table1CampaignCell{
				PNAMicros: simtime.Duration(part.PNARaw).Micros(),
				PAMicros:  make(map[string]float64, len(part.PARaw)),
			}
			for iv, raw := range part.PARaw {
				cell.PAMicros[iv] = simtime.Duration(raw).Micros()
			}
			cells[app] = cell
		}
		out.Cells[fmt.Sprintf("%g", q.Millis())] = cells
	}
	return out
}

func table1CellPlan(np CampaignParams) (*CellPlan, error) {
	opts, err := np.options()
	if err != nil {
		return nil, err
	}
	// DefaultQs is ascending, so cell order (q-major, pattern-minor, the
	// BuildTable1Ctx layout) is already the wire result's Q order.
	qs := measure.DefaultQs()
	names := patternNames()
	// The plan's cells (and a future plan's table1 cells) share one stream
	// set, so each reference stream is built once per campaign, by the
	// first executed cell that replays it; cells served from a cache tier
	// build nothing, and the streams go when the plan does.
	streams := measure.NewStreamSet(memtrace.Patterns(), opts.MeasureBudget, opts.Seed)
	plan := &CellPlan{Kind: "table1", Params: np}
	for qi := range qs {
		for pi := range names {
			qi, pi := qi, pi
			key, err := cellKey(table1CellKey{
				BudgetSec: np.BudgetSec, Seed: np.Seed, QMs: qs[qi].Millis(), App: names[pi],
			})
			if err != nil {
				return nil, err
			}
			plan.Cells = append(plan.Cells, Cell{
				ID:        fmt.Sprintf("q=%gms/app=%s", qs[qi].Millis(), names[pi]),
				KeyKind:   "cell/table1",
				KeyParams: key,
				run: func(ctx context.Context) (any, error) {
					o, err := np.optionsCtx(ctx)
					if err != nil {
						return nil, err
					}
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					mc := o.Machine
					mc.Processors = 1 // the paper's measurement uses a single processor
					pen, err := streams.MeasureCell(mc, pi, qs[qi])
					if err != nil {
						return nil, err
					}
					if o.Stats != nil {
						o.Stats.Add("measure", table1CellStats(mc, pen, names, o.MeasureBudget))
					}
					return newTable1Partial(pen), nil
				},
			})
		}
	}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[table1CellPartial](raws)
		if err != nil {
			return nil, err
		}
		return mergeTable1(qs, names, parts), nil
	}
	return plan, nil
}

func patternNames() []string {
	pats := memtrace.Patterns()
	names := make([]string, len(pats))
	for i, p := range pats {
		names[i] = p.Name
	}
	return names
}

// ---- compare (shared with future) --------------------------------------

// compareCellKey is the cache identity of one (mix, policy) comparison
// cell. The policy list and mix list are absent by design: the cell's
// seeds are parallel.CellSeed(seed, mix, rep) — policy-independent — so
// any campaign whose grid contains this coordinate produces these bytes.
type compareCellKey struct {
	Procs    int    `json:"procs"`
	Reps     int    `json:"reps"`
	AppScale int    `json:"app_scale"`
	Seed     uint64 `json:"seed"`
	Mix      int    `json:"mix"`
	Policy   string `json:"policy"`
	// Engine is the resolved tier ("sim" or "analytic"), spelled explicitly
	// even for the default: analytic estimates and simulated results must
	// never collide onto one cache entry.
	Engine string `json:"engine"`
}

// compareCellJob is one job's replication-averaged outcome within a
// compare cell; fields mirror CompareCampaignRow minus the cross-cell
// RelRT, which the merge derives.
type compareCellJob struct {
	App           string  `json:"app"`
	MeanRTSec     float64 `json:"mean_rt_sec"`
	WorkSec       float64 `json:"work_sec"`
	WasteSec      float64 `json:"waste_sec"`
	MissSec       float64 `json:"miss_sec"`
	SwitchSec     float64 `json:"switch_sec"`
	AvgAlloc      float64 `json:"avg_alloc"`
	Reallocations float64 `json:"reallocations"`
	PctAffinity   float64 `json:"pct_affinity"`
	IntervalMs    float64 `json:"realloc_interval_ms"`
}

type compareCellPartial struct {
	Jobs []compareCellJob `json:"jobs"`
}

// compareCellList builds the (mix, policy) cells for the given grid,
// mix-major. Shared by the compare and future kinds, whose policy cells
// are the same cache entries.
func compareCellList(np CampaignParams, mixNumbers []int, policies []string) ([]Cell, error) {
	eng, err := normalizeEngine(np.Engine)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, mixNum := range mixNumbers {
		for _, pol := range policies {
			mixNum, pol := mixNum, pol
			// Auto resolves here, at planning time, so the key below and the
			// Cell.Engine surfaced to clients both carry a concrete tier.
			engine := resolveCellEngine(eng, compareCellCoord(
				np.Procs, np.Replications, np.AppScale, np.Seed, mixNum, pol))
			key, err := cellKey(compareCellKey{
				Procs: np.Procs, Reps: np.Replications, AppScale: np.AppScale,
				Seed: np.Seed, Mix: mixNum, Policy: pol, Engine: engine,
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, Cell{
				ID:        fmt.Sprintf("mix=%d/policy=%s", mixNum, pol),
				KeyKind:   "cell/compare",
				KeyParams: key,
				Engine:    engine,
				run: func(ctx context.Context) (any, error) {
					o, err := np.optionsCtx(ctx)
					if err != nil {
						return nil, err
					}
					// Pin the resolved tier: the single-coordinate run below
					// must use exactly the engine hashed into this cell's key,
					// even though it re-derives the same resolution itself.
					o.Engine = engine
					mix, err := workload.MixByNumber(mixNum)
					if err != nil {
						return nil, err
					}
					// A single-coordinate ComparePoliciesCtx call: its seeds
					// are position-independent, so the summaries equal the
					// matching block of any larger grid.
					cr, err := ComparePoliciesCtx(ctx, o, []workload.Mix{mix}, []string{pol})
					if err != nil {
						return nil, err
					}
					sums := cr.Summaries[mixNum][pol]
					part := compareCellPartial{Jobs: make([]compareCellJob, len(sums))}
					for ji, js := range sums {
						part.Jobs[ji] = compareCellJob{
							App:           js.App,
							MeanRTSec:     js.MeanRT(),
							WorkSec:       js.WorkSec,
							WasteSec:      js.WasteSec,
							MissSec:       js.MissSec,
							SwitchSec:     js.SwitchSec,
							AvgAlloc:      js.AvgAlloc,
							Reallocations: js.Reallocations,
							PctAffinity:   js.PctAffinity,
							IntervalMs:    js.IntervalMs,
						}
					}
					return part, nil
				},
			})
		}
	}
	return cells, nil
}

// compareMergeRows rebuilds the compare wire rows from per-cell partials
// laid out policy-minor: parts[mi*len(policies)+pi]. RelRT is derived
// here, from the cells' replication-mean response times.
func compareMergeRows(mixNumbers []int, policies []string, parts []compareCellPartial) CompareCampaignResult {
	out := CompareCampaignResult{Policies: append([]string(nil), policies...)}
	hasBaseline := false
	for _, pol := range policies {
		if pol == "Equipartition" {
			hasBaseline = true
		}
	}
	for mi, mixNum := range mixNumbers {
		out.Mixes = append(out.Mixes, mixNum)
		var base compareCellPartial
		if hasBaseline {
			// With duplicate baseline entries all partials are identical,
			// so any one serves.
			for pi, pol := range policies {
				if pol == "Equipartition" {
					base = parts[mi*len(policies)+pi]
				}
			}
		}
		for pi, pol := range policies {
			part := parts[mi*len(policies)+pi]
			for ji, job := range part.Jobs {
				row := CompareCampaignRow{
					Mix:           mixNum,
					Policy:        pol,
					Job:           ji,
					App:           job.App,
					MeanRTSec:     job.MeanRTSec,
					WorkSec:       job.WorkSec,
					WasteSec:      job.WasteSec,
					MissSec:       job.MissSec,
					SwitchSec:     job.SwitchSec,
					AvgAlloc:      job.AvgAlloc,
					Reallocations: job.Reallocations,
					PctAffinity:   job.PctAffinity,
					IntervalMs:    job.IntervalMs,
				}
				if hasBaseline {
					row.RelRT = stats.Ratio(job.MeanRTSec, base.Jobs[ji].MeanRTSec)
				}
				out.Rows = append(out.Rows, row)
			}
		}
	}
	return out
}

func allMixNumbers() []int {
	mixes := workload.Mixes()
	out := make([]int, len(mixes))
	for i, m := range mixes {
		out[i] = m.Number
	}
	return out
}

func compareCellPlan(np CampaignParams) (*CellPlan, error) {
	if _, err := np.options(); err != nil {
		return nil, err
	}
	mixNumbers := allMixNumbers()
	if np.Mix != 0 {
		mixNumbers = []int{np.Mix}
	}
	cells, err := compareCellList(np, mixNumbers, np.Policies)
	if err != nil {
		return nil, err
	}
	plan := &CellPlan{Kind: "compare", Params: np, Cells: cells}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[compareCellPartial](raws)
		if err != nil {
			return nil, err
		}
		return compareMergeRows(mixNumbers, np.Policies, parts), nil
	}
	return plan, nil
}

// ---- future ------------------------------------------------------------

// futureCellPlan reuses the compare and table1 cell shapes: the future
// kind's simulation grid is workload.Mixes() x withBaseline(policies)
// compare cells followed by the table1 measurement cells, so a prior
// compare or table1 campaign (or another future run with an overlapping
// policy list) seeds its cache entries. The merge is the compare merge
// and the table1 merge followed by the Section-7.3 parameter extraction
// and the analytic sweep — pure float math on the merged results.
func futureCellPlan(np CampaignParams) (*CellPlan, error) {
	opts, err := np.options()
	if err != nil {
		return nil, err
	}
	cols := withBaseline(np.Policies)
	mixNumbers := allMixNumbers()
	compareCells, err := compareCellList(np, mixNumbers, cols)
	if err != nil {
		return nil, err
	}
	t1Plan, err := table1CellPlan(np)
	if err != nil {
		return nil, err
	}
	plan := &CellPlan{Kind: "future", Params: np, Cells: append(compareCells, t1Plan.Cells...)}
	nc := len(compareCells)
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		cparts, err := decodeParts[compareCellPartial](raws[:nc])
		if err != nil {
			return nil, err
		}
		cr, err := compareMergeRows(mixNumbers, cols, cparts).CompareResult(opts)
		if err != nil {
			return nil, err
		}
		t1, err := t1Plan.merge(ctx, raws[nc:])
		if err != nil {
			return nil, err
		}
		scen, err := FutureScenarios(cr, t1.(Table1CampaignResult).Table1())
		if err != nil {
			return nil, err
		}
		return FutureSweep(scen, np.Policies, np.MaxProduct)
	}
	return plan, nil
}

// ---- futuresim ---------------------------------------------------------

// futureSimCellKey is the cache identity of one (product, policy) point
// of the simulated-future sweep. Replication seeds are shared across the
// whole grid (CellSeed of the replication alone), so the product and
// policy lists are absent and supersets reuse points.
type futureSimCellKey struct {
	Procs    int     `json:"procs"`
	Reps     int     `json:"reps"`
	AppScale int     `json:"app_scale"`
	Seed     uint64  `json:"seed"`
	Mix      int     `json:"mix"`
	Product  float64 `json:"product"`
	Policy   string  `json:"policy"`
	// Engine is the resolved tier ("sim" or "analytic"); see compareCellKey.
	Engine string `json:"engine"`
}

// futureSimCellPartial is one point's replication-mean response time;
// the merge divides policy means by the Equipartition mean.
type futureSimCellPartial struct {
	MeanRTSec float64 `json:"mean_rt_sec"`
}

func futureSimCellPlan(np CampaignParams) (*CellPlan, error) {
	if _, err := np.options(); err != nil {
		return nil, err
	}
	eng, err := normalizeEngine(np.Engine)
	if err != nil {
		return nil, err
	}
	// The baseline joins the policy axis as column zero, unconditionally.
	cols := append([]string{"Equipartition"}, np.Policies...)
	plan := &CellPlan{Kind: "futuresim", Params: np}
	for _, prod := range np.Products {
		for _, col := range cols {
			prod, col := prod, col
			engine := resolveCellEngine(eng, futureSimCellCoord(
				np.Procs, np.Replications, np.AppScale, np.Seed, np.Mix, prod, col))
			key, err := cellKey(futureSimCellKey{
				Procs: np.Procs, Reps: np.Replications, AppScale: np.AppScale,
				Seed: np.Seed, Mix: np.Mix, Product: prod, Policy: col, Engine: engine,
			})
			if err != nil {
				return nil, err
			}
			plan.Cells = append(plan.Cells, Cell{
				ID:        fmt.Sprintf("product=%g/policy=%s", prod, col),
				KeyKind:   "cell/futuresim",
				KeyParams: key,
				Engine:    engine,
				run: func(ctx context.Context) (any, error) {
					o, err := np.optionsCtx(ctx)
					if err != nil {
						return nil, err
					}
					mix, err := workload.MixByNumber(np.Mix)
					if err != nil {
						return nil, err
					}
					mc, err := futureSimMachine(o.Machine, prod)
					if err != nil {
						return nil, err
					}
					if _, ok := core.ByName(col); !ok {
						return nil, fmt.Errorf("experiments: unknown policy %q", col)
					}
					R := o.Replications
					rts := make([]float64, R)
					simStats := make([]obs.SimStats, R)
					err = parallel.ForEach(ctx, o.Workers, R, func(ctx context.Context, rep int) error {
						seed := parallel.CellSeed(o.Seed, uint64(rep))
						pol, _ := core.ByName(col)
						r, err := runCell(engine, sched.Config{
							Machine: mc,
							Policy:  pol,
							Apps:    o.apps(mix, seed),
							Seed:    seed,
						})
						if err != nil {
							return fmt.Errorf("experiments: product %v policy %s: %w", prod, col, err)
						}
						rts[rep] = r.MeanResponse()
						simStats[rep] = r.Stats
						return nil
					})
					if err != nil {
						return nil, err
					}
					if o.Stats != nil {
						parallel.Fold(simStats, func(_ int, s obs.SimStats) {
							o.Stats.Add(col, s)
						})
					}
					var mean float64
					for rep := 0; rep < R; rep++ {
						mean += rts[rep] / float64(R)
					}
					return futureSimCellPartial{MeanRTSec: mean}, nil
				},
			})
		}
	}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[futureSimCellPartial](raws)
		if err != nil {
			return nil, err
		}
		out := FutureSimCampaignResult{Mix: np.Mix, Policies: append([]string(nil), np.Policies...)}
		for prodIdx, prod := range np.Products {
			base := parts[prodIdx*len(cols)].MeanRTSec
			pt := FutureSimCampaignPoint{Product: prod, SimRel: make(map[string]float64)}
			for pi, pol := range np.Policies {
				pt.SimRel[pol] = parts[prodIdx*len(cols)+pi+1].MeanRTSec / base
			}
			out.Points = append(out.Points, pt)
		}
		return out, nil
	}
	return plan, nil
}

// ---- relatedwork -------------------------------------------------------

// relatedWorkCellKey is the cache identity of one Section-8 policy row
// (the kind's mix is fixed at #5).
type relatedWorkCellKey struct {
	Procs    int    `json:"procs"`
	Reps     int    `json:"reps"`
	AppScale int    `json:"app_scale"`
	Seed     uint64 `json:"seed"`
	Policy   string `json:"policy"`
}

// relatedWorkCellPartial is one policy's aggregated row; the merge
// derives the cross-policy gain contrasts.
type relatedWorkCellPartial struct {
	MeanRTSec     float64 `json:"mean_rt_sec"`
	MissSec       float64 `json:"miss_sec"`
	Reallocations int     `json:"reallocations"`
	PctAffinity   float64 `json:"pct_affinity"`
}

func relatedWorkCellPlan(np CampaignParams) (*CellPlan, error) {
	if _, err := np.options(); err != nil {
		return nil, err
	}
	policies := relatedWorkPolicies()
	plan := &CellPlan{Kind: "relatedwork", Params: np}
	for _, polName := range policies {
		polName := polName
		key, err := cellKey(relatedWorkCellKey{
			Procs: np.Procs, Reps: np.Replications, AppScale: np.AppScale,
			Seed: np.Seed, Policy: polName,
		})
		if err != nil {
			return nil, err
		}
		plan.Cells = append(plan.Cells, Cell{
			ID:        "policy=" + polName,
			KeyKind:   "cell/relatedwork",
			KeyParams: key,
			run: func(ctx context.Context) (any, error) {
				o, err := np.optionsCtx(ctx)
				if err != nil {
					return nil, err
				}
				mix, err := workload.MixByNumber(5)
				if err != nil {
					return nil, err
				}
				if _, ok := core.ByName(polName); !ok {
					return nil, fmt.Errorf("experiments: unknown policy %q", polName)
				}
				R := o.Replications
				runs := make([]sched.Result, R)
				err = parallel.ForEach(ctx, o.Workers, R, func(ctx context.Context, rep int) error {
					seed := parallel.CellSeed(o.Seed, uint64(rep))
					pol, _ := core.ByName(polName)
					r, err := runSim(sched.Config{
						Machine: o.Machine,
						Policy:  pol,
						Apps:    o.apps(mix, seed),
						Seed:    seed,
					})
					if err != nil {
						return err
					}
					runs[rep] = r
					return nil
				})
				if err != nil {
					return nil, err
				}
				if o.Stats != nil {
					parallel.Fold(runs, func(_ int, r sched.Result) {
						o.Stats.Add(polName, r.Stats)
					})
				}
				row := relatedWorkRowFrom(polName, runs)
				return relatedWorkCellPartial{
					MeanRTSec:     row.MeanRT,
					MissSec:       row.MissSec,
					Reallocations: row.Reallocations,
					PctAffinity:   row.PctAffinity,
				}, nil
			},
		})
	}
	plan.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[relatedWorkCellPartial](raws)
		if err != nil {
			return nil, err
		}
		rows := make([]RelatedWorkRow, len(parts))
		for i, part := range parts {
			rows[i] = RelatedWorkRow{
				Policy:        policies[i],
				MeanRT:        part.MeanRTSec,
				MissSec:       part.MissSec,
				Reallocations: part.Reallocations,
				PctAffinity:   part.PctAffinity,
			}
		}
		return RelatedWorkCampaignResult{Result: relatedWorkDerive(rows)}, nil
	}
	return plan, nil
}
