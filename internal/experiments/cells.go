package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/pprof"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/memtrace"
	"repro/internal/obs"
	"repro/internal/parallel"
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
		partials[i], err = plan.Cells[i].RunBody(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	parallel.Fold(cellStats, func(_ int, s *obs.CampaignStats) { collector.AddCell(s) })
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

	// kind is the campaign kind whose plan holds the cell.
	kind string
	run  func(ctx context.Context) (any, error)
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

// RunBody executes the cell and returns its canonical-JSON partial, the
// bytes Merge consumes and the result tiers file. CPU profile samples
// carry the campaign kind and the cell as pprof labels.
func (c *Cell) RunBody(ctx context.Context) ([]byte, error) {
	var res any
	var err error
	pprof.Do(ctx, pprof.Labels("campaign", c.kind, "cell", c.ID), func(ctx context.Context) {
		res, err = c.Run(ctx)
	})
	if err != nil {
		return nil, err
	}
	// Partials are canonical by construction, like keys (see cellKey).
	body, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("encode cell %s: %w", c.ID, err)
	}
	return body, nil
}

// grid is a kind's cell plan addressed by index: n cells in grid order,
// cell(i) building the i-th alone, and the merge over all n partials.
// Every per-kind planner returns one, so a plan of every cell (Cells) and
// a single cell (CellAt) come from the same code.
type grid struct {
	n     int
	cell  func(i int) (Cell, error)
	merge func(ctx context.Context, partials []json.RawMessage) (any, error)
}

// planGrid normalizes p and returns the kind's grid over the normalized
// params.
func planGrid(kind string, p CampaignParams) (CampaignParams, grid, error) {
	np, err := Campaign{Kind: kind}.Normalize(p)
	if err != nil {
		return p, grid{}, err
	}
	g, err := kindByName(kind).grid(np)
	return np, g, err
}

// at builds cell i of a kind's grid.
func (g grid) at(kind string, i int) (Cell, error) {
	c, err := g.cell(i)
	c.kind = kind
	return c, err
}

// Cells normalizes p and splits the campaign into its cell plan.
func Cells(kind string, p CampaignParams) (*CellPlan, error) {
	np, g, err := planGrid(kind, p)
	if err != nil {
		return nil, err
	}
	plan := &CellPlan{Kind: kind, Params: np, Cells: make([]Cell, g.n), merge: g.merge}
	for i := range plan.Cells {
		if plan.Cells[i], err = g.at(kind, i); err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// CellAt normalizes p and builds only cell i of the campaign's plan: the
// cell Cells(kind, p).Cells[i] holds, at the cost of that one cell. It
// also returns the plan's cell count, which is valid whenever the params
// are, so a caller can tell an index outside [0, n) — also an error —
// from bad params.
func CellAt(kind string, p CampaignParams, i int) (*Cell, int, error) {
	_, g, err := planGrid(kind, p)
	if err != nil {
		return nil, 0, err
	}
	if i < 0 || i >= g.n {
		return nil, g.n, fmt.Errorf("experiments: %s: cell index %d outside plan (%d cells)", kind, i, g.n)
	}
	c, err := g.at(kind, i)
	if err != nil {
		return nil, g.n, err
	}
	return &c, g.n, nil
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

// cellKey encodes a cell's key material. Every cell-key and cell-partial
// type declares its fields in bytewise JSON-name order and holds no
// untyped values, so plain json.Marshal already produces
// report.CanonicalJSON's bytes (TestCellBytesCanonicalByConstruction checks
// every kind) without its decode-and-re-encode round trip.
func cellKey(v any) ([]byte, error) { return json.Marshal(v) }

// replicate runs one cell's np.Replications replications of mix under
// policy on machine mc, np.Workers at a time, on the given engine tier;
// seed maps a replication number to its seed. It returns the results in
// replication order and folds their stats into ctx's collector under
// policy once all have run, in replication order, so the totals are
// identical at every worker count. A failing replication's error is
// labelled with where and the policy; on several failures the
// lowest-numbered one's is returned.
func replicate(ctx context.Context, np CampaignParams, mc machine.Config, engine, where string, mix workload.Mix, policy string, seed func(rep int) uint64) ([]sched.Result, error) {
	runs := make([]sched.Result, np.Replications)
	err := parallel.ForEach(ctx, np.Workers, len(runs), func(ctx context.Context, rep int) error {
		cfg, err := replicationConfig(np, mc, mix, policy, seed(rep))
		if err == nil {
			runs[rep], err = runCell(engine, cfg)
		}
		if err != nil {
			return fmt.Errorf("experiments: %s policy %s: %w", where, policy, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stats := obs.CollectorFrom(ctx)
	for _, r := range runs {
		stats.Add(policy, r.Stats)
	}
	return runs, nil
}

// replicationConfig builds one replication's simulation config on machine
// mc: a fresh instance of the policy (policies carry per-run state, so no
// two runs share one), the mix's applications at p's scale, and the seed.
func replicationConfig(p CampaignParams, mc machine.Config, mix workload.Mix, policy string, seed uint64) (sched.Config, error) {
	pol, ok := core.ByName(policy)
	if !ok {
		return sched.Config{}, fmt.Errorf("unknown policy %q", policy)
	}
	return sched.Config{Machine: mc, Policy: pol, Apps: p.apps(mix, seed), Seed: seed}, nil
}

// ---- characterize ------------------------------------------------------

// characterizeCellKey is the cache identity of one isolated-application
// characterization. AppScale changes the application itself, Procs the
// machine it runs on, Seed every random draw.
type characterizeCellKey struct {
	App      string `json:"app"`
	AppScale int    `json:"app_scale"`
	Procs    int    `json:"procs"`
	Seed     uint64 `json:"seed"`
}

func characterizeGrid(np CampaignParams) (grid, error) {
	apps := characterizeApps(np)
	cell := func(i int) (Cell, error) {
		key, err := cellKey(characterizeCellKey{
			Procs: np.Procs, AppScale: np.AppScale, Seed: np.Seed, App: apps[i].Name,
		})
		if err != nil {
			return Cell{}, err
		}
		return Cell{
			ID:        "app=" + apps[i].Name,
			KeyKind:   "cell/characterize",
			KeyParams: key,
			run: func(ctx context.Context) (any, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				ch, st, err := characterizeApp(np, characterizeApps(np)[i])
				if err != nil {
					return nil, err
				}
				obs.CollectorFrom(ctx).Add("Equipartition", st)
				return ch, nil
			},
		}, nil
	}
	merge := func(ctx context.Context, raws []json.RawMessage) (any, error) {
		chars, err := decodeParts[AppCharacter](raws)
		if err != nil {
			return nil, err
		}
		return CharacterizeCampaignResult{Apps: chars}, nil
	}
	return grid{n: len(apps), cell: cell, merge: merge}, nil
}

// ---- table1 ------------------------------------------------------------

// table1CellKey is the cache identity of one (Q, measured application)
// penalty measurement. Procs is absent: the protocol always measures on
// a single processor.
type table1CellKey struct {
	App       string  `json:"app"`
	BudgetSec float64 `json:"budget_sec"`
	QMs       float64 `json:"q_ms"`
	Seed      uint64  `json:"seed"`
}

// table1CellPartial carries one cell's penalties as raw simtime ticks,
// not float microseconds: Duration -> Micros() is a lossy float
// division, so the merge performs it exactly once.
type table1CellPartial struct {
	PARaw  map[string]int64 `json:"pa_raw"`
	PNARaw int64            `json:"pna_raw"`
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

func table1Grid(np CampaignParams) (grid, error) {
	budget := simtime.Seconds(np.BudgetSec)
	// DefaultQs is ascending, so cell order (q-major, pattern-minor, the
	// BuildTable1 layout) is already the wire result's Q order.
	qs := measure.DefaultQs()
	names := patternNames()
	// The plan's cells (and a future plan's table1 cells) share one stream
	// set, so each reference stream is built once per campaign, by the
	// first executed cell that replays it; cells served from a cache tier
	// build nothing, and the streams go when the plan does.
	streams := measure.NewStreamSet(memtrace.Patterns(), budget, np.Seed)
	cell := func(i int) (Cell, error) {
		qi, pi := i/len(names), i%len(names)
		key, err := cellKey(table1CellKey{
			BudgetSec: np.BudgetSec, Seed: np.Seed, QMs: qs[qi].Millis(), App: names[pi],
		})
		if err != nil {
			return Cell{}, err
		}
		return Cell{
			ID:        fmt.Sprintf("q=%gms/app=%s", qs[qi].Millis(), names[pi]),
			KeyKind:   "cell/table1",
			KeyParams: key,
			run: func(ctx context.Context) (any, error) {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				mc := symmetry(1) // the paper's measurement uses a single processor
				pen, err := streams.MeasureCell(mc, pi, qs[qi])
				if err != nil {
					return nil, err
				}
				if stats := obs.CollectorFrom(ctx); stats != nil {
					stats.Add("measure", table1CellStats(mc, pen, names, budget))
				}
				return newTable1Partial(pen), nil
			},
		}, nil
	}
	merge := func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[table1CellPartial](raws)
		if err != nil {
			return nil, err
		}
		return mergeTable1(qs, names, parts), nil
	}
	return grid{n: len(qs) * len(names), cell: cell, merge: merge}, nil
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
	AppScale int `json:"app_scale"`
	// Engine is the resolved tier ("sim" or "analytic"), spelled explicitly
	// even for the default: analytic estimates and simulated results must
	// never collide onto one cache entry.
	Engine string `json:"engine"`
	Mix    int    `json:"mix"`
	Policy string `json:"policy"`
	Procs  int    `json:"procs"`
	Reps   int    `json:"reps"`
	Seed   uint64 `json:"seed"`
}

// compareCellJob is one job's replication-averaged outcome within a
// compare cell; fields mirror CompareCampaignRow minus the cross-cell
// RelRT, which the merge derives.
type compareCellJob struct {
	App           string  `json:"app"`
	AvgAlloc      float64 `json:"avg_alloc"`
	MeanRTSec     float64 `json:"mean_rt_sec"`
	MissSec       float64 `json:"miss_sec"`
	PctAffinity   float64 `json:"pct_affinity"`
	IntervalMs    float64 `json:"realloc_interval_ms"`
	Reallocations float64 `json:"reallocations"`
	SwitchSec     float64 `json:"switch_sec"`
	WasteSec      float64 `json:"waste_sec"`
	WorkSec       float64 `json:"work_sec"`
}

type compareCellPartial struct {
	Jobs []compareCellJob `json:"jobs"`
}

// comparePartial aggregates a compare cell's replications in replication
// order. MeanRTSec sums the response times and divides once, as a sample
// mean does; every other field adds up each replication's share.
func comparePartial(runs []sched.Result) compareCellPartial {
	n := float64(len(runs))
	jobs := make([]compareCellJob, len(runs[0].Jobs))
	for i, j := range runs[0].Jobs {
		jobs[i].App = j.App
	}
	for _, res := range runs {
		for i, j := range res.Jobs {
			c := &jobs[i]
			c.MeanRTSec += j.ResponseTime.SecondsF()
			c.WorkSec += j.Work.SecondsF() / n
			c.WasteSec += j.Waste.SecondsF() / n
			c.MissSec += j.MissTime.SecondsF() / n
			c.SwitchSec += j.SwitchTime.SecondsF() / n
			c.AvgAlloc += j.AvgAlloc / n
			c.Reallocations += float64(j.Reallocations) / n
			c.PctAffinity += j.PctAffinity() / n
			c.IntervalMs += j.ReallocInterval().Millis() / n
		}
	}
	for i := range jobs {
		jobs[i].MeanRTSec /= n
	}
	return compareCellPartial{Jobs: jobs}
}

// compareCells is the (mix, policy) grid over the given lists, mix-major,
// without a merge. Shared by the compare and future kinds, whose policy
// cells are the same cache entries.
func compareCells(np CampaignParams, mixNumbers []int, policies []string) (grid, error) {
	eng, err := normalizeEngine(np.Engine)
	if err != nil {
		return grid{}, err
	}
	cell := func(i int) (Cell, error) {
		mixNum, pol := mixNumbers[i/len(policies)], policies[i%len(policies)]
		// Auto resolves here, at planning time, so the key below and the
		// Cell.Engine surfaced to clients both carry a concrete tier.
		engine := eng
		if engine == EngineAuto {
			engine = autoEngine(compareCellCoord(np.Procs, np.Replications, np.AppScale, np.Seed, mixNum, pol))
		}
		key, err := cellKey(compareCellKey{
			Procs: np.Procs, Reps: np.Replications, AppScale: np.AppScale,
			Seed: np.Seed, Mix: mixNum, Policy: pol, Engine: engine,
		})
		if err != nil {
			return Cell{}, err
		}
		return Cell{
			ID:        fmt.Sprintf("mix=%d/policy=%s", mixNum, pol),
			KeyKind:   "cell/compare",
			KeyParams: key,
			Engine:    engine,
			run: func(ctx context.Context) (any, error) {
				mix, err := workload.MixByNumber(mixNum)
				if err != nil {
					return nil, err
				}
				// The seeds leave out the policy: replication r sees the
				// same workload under every policy (common random
				// numbers), which keeps relative response times
				// low-variance.
				runs, err := replicate(ctx, np, symmetry(np.Procs), engine, fmt.Sprintf("mix #%d", mixNum), mix, pol, func(rep int) uint64 {
					return parallel.CellSeed(np.Seed, uint64(mixNum), uint64(rep))
				})
				if err != nil {
					return nil, err
				}
				return comparePartial(runs), nil
			},
		}, nil
	}
	return grid{n: len(mixNumbers) * len(policies), cell: cell}, nil
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

func compareGrid(np CampaignParams) (grid, error) {
	mixNumbers := allMixNumbers()
	if np.Mix != 0 {
		mixNumbers = []int{np.Mix}
	}
	g, err := compareCells(np, mixNumbers, np.Policies)
	if err != nil {
		return grid{}, err
	}
	g.merge = func(ctx context.Context, raws []json.RawMessage) (any, error) {
		parts, err := decodeParts[compareCellPartial](raws)
		if err != nil {
			return nil, err
		}
		return compareMergeRows(mixNumbers, np.Policies, parts), nil
	}
	return g, nil
}

// ---- future ------------------------------------------------------------

// futureGrid reuses the compare and table1 cell shapes: the future
// kind's simulation grid is workload.Mixes() x withBaseline(policies)
// compare cells followed by the table1 measurement cells, so a prior
// compare or table1 campaign (or another future run with an overlapping
// policy list) seeds its cache entries. The merge is the compare merge
// and the table1 merge followed by the Section-7.3 parameter extraction
// and the analytic sweep — pure float math on the merged results.
func futureGrid(np CampaignParams) (grid, error) {
	cols := withBaseline(np.Policies)
	mixNumbers := allMixNumbers()
	cg, err := compareCells(np, mixNumbers, cols)
	if err != nil {
		return grid{}, err
	}
	tg, err := table1Grid(np)
	if err != nil {
		return grid{}, err
	}
	nc := cg.n
	cell := func(i int) (Cell, error) {
		if i < nc {
			return cg.cell(i)
		}
		return tg.cell(i - nc)
	}
	merge := func(ctx context.Context, raws []json.RawMessage) (any, error) {
		cparts, err := decodeParts[compareCellPartial](raws[:nc])
		if err != nil {
			return nil, err
		}
		t1, err := tg.merge(ctx, raws[nc:])
		if err != nil {
			return nil, err
		}
		scen, err := FutureScenarios(compareMergeRows(mixNumbers, cols, cparts), t1.(Table1CampaignResult).Table1())
		if err != nil {
			return nil, err
		}
		return FutureSweep(scen, np.Policies, np.MaxProduct)
	}
	return grid{n: nc + tg.n, cell: cell, merge: merge}, nil
}

// ---- futuresim ---------------------------------------------------------

// futureSimCellKey is the cache identity of one (product, policy) point
// of the simulated-future sweep. Replication seeds are shared across the
// whole grid (CellSeed of the replication alone), so the product and
// policy lists are absent and supersets reuse points.
type futureSimCellKey struct {
	AppScale int `json:"app_scale"`
	// Engine is the resolved tier ("sim" or "analytic"); see compareCellKey.
	Engine  string  `json:"engine"`
	Mix     int     `json:"mix"`
	Policy  string  `json:"policy"`
	Procs   int     `json:"procs"`
	Product float64 `json:"product"`
	Reps    int     `json:"reps"`
	Seed    uint64  `json:"seed"`
}

// futureSimCellPartial is one point's replication-mean response time;
// the merge divides policy means by the Equipartition mean.
type futureSimCellPartial struct {
	MeanRTSec float64 `json:"mean_rt_sec"`
}

func futureSimGrid(np CampaignParams) (grid, error) {
	eng, err := normalizeEngine(np.Engine)
	if err != nil {
		return grid{}, err
	}
	// The baseline joins the policy axis as column zero, unconditionally.
	cols := append([]string{"Equipartition"}, np.Policies...)
	cell := func(i int) (Cell, error) {
		prod, col := np.Products[i/len(cols)], cols[i%len(cols)]
		engine := eng
		if engine == EngineAuto {
			engine = autoEngine(futureSimCellCoord(np.Procs, np.Replications, np.AppScale, np.Seed, np.Mix, prod, col))
		}
		key, err := cellKey(futureSimCellKey{
			Procs: np.Procs, Reps: np.Replications, AppScale: np.AppScale,
			Seed: np.Seed, Mix: np.Mix, Product: prod, Policy: col, Engine: engine,
		})
		if err != nil {
			return Cell{}, err
		}
		return Cell{
			ID:        fmt.Sprintf("product=%g/policy=%s", prod, col),
			KeyKind:   "cell/futuresim",
			KeyParams: key,
			Engine:    engine,
			run: func(ctx context.Context) (any, error) {
				mix, err := workload.MixByNumber(np.Mix)
				if err != nil {
					return nil, err
				}
				mc, err := futureSimMachine(symmetry(np.Procs), prod)
				if err != nil {
					return nil, err
				}
				// Replication seeds leave out the product and the policy,
				// so every point of the sweep sees the same workloads.
				runs, err := replicate(ctx, np, mc, engine, fmt.Sprintf("product %v", prod), mix, col, func(rep int) uint64 {
					return parallel.CellSeed(np.Seed, uint64(rep))
				})
				if err != nil {
					return nil, err
				}
				var mean float64
				for _, r := range runs {
					mean += r.MeanResponse() / float64(len(runs))
				}
				return futureSimCellPartial{MeanRTSec: mean}, nil
			},
		}, nil
	}
	merge := func(ctx context.Context, raws []json.RawMessage) (any, error) {
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
	return grid{n: len(np.Products) * len(cols), cell: cell, merge: merge}, nil
}

// ---- relatedwork -------------------------------------------------------

// relatedWorkCellKey is the cache identity of one Section-8 policy row
// (the kind's mix is fixed at #5).
type relatedWorkCellKey struct {
	AppScale int    `json:"app_scale"`
	Policy   string `json:"policy"`
	Procs    int    `json:"procs"`
	Reps     int    `json:"reps"`
	Seed     uint64 `json:"seed"`
}

// relatedWorkCellPartial is one policy's aggregated row; the merge
// derives the cross-policy gain contrasts.
type relatedWorkCellPartial struct {
	MeanRTSec     float64 `json:"mean_rt_sec"`
	MissSec       float64 `json:"miss_sec"`
	PctAffinity   float64 `json:"pct_affinity"`
	Reallocations int     `json:"reallocations"`
}

func relatedWorkGrid(np CampaignParams) (grid, error) {
	policies := relatedWorkPolicies()
	cell := func(i int) (Cell, error) {
		polName := policies[i]
		key, err := cellKey(relatedWorkCellKey{
			Procs: np.Procs, Reps: np.Replications, AppScale: np.AppScale,
			Seed: np.Seed, Policy: polName,
		})
		if err != nil {
			return Cell{}, err
		}
		return Cell{
			ID:        "policy=" + polName,
			KeyKind:   "cell/relatedwork",
			KeyParams: key,
			run: func(ctx context.Context) (any, error) {
				mix, err := workload.MixByNumber(5)
				if err != nil {
					return nil, err
				}
				runs, err := replicate(ctx, np, symmetry(np.Procs), EngineSim, "mix #5", mix, polName, func(rep int) uint64 {
					return parallel.CellSeed(np.Seed, uint64(rep))
				})
				if err != nil {
					return nil, err
				}
				row := relatedWorkRowFrom(polName, runs)
				return relatedWorkCellPartial{
					MeanRTSec:     row.MeanRT,
					MissSec:       row.MissSec,
					Reallocations: row.Reallocations,
					PctAffinity:   row.PctAffinity,
				}, nil
			},
		}, nil
	}
	merge := func(ctx context.Context, raws []json.RawMessage) (any, error) {
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
	return grid{n: len(policies), cell: cell, merge: merge}, nil
}
