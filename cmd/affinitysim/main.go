// Command affinitysim reproduces the experiments of "The Implications of
// Cache Affinity on Processor Scheduling for Multiprogrammed, Shared Memory
// Multiprocessors" (Vaswani & Zahorjan, SOSP 1991) on the simulated Sequent
// Symmetry.
//
// Usage:
//
//	affinitysim characterize [flags]   # Figures 2-4: application characteristics
//	affinitysim measure      [flags]   # Table 1: P^A and P^NA penalties (-detail: per-regime runs)
//	affinitysim compare      [flags]   # Figures 5-6, Tables 3-4: policy comparison
//	affinitysim future       [flags]   # Figures 8-13 and crossover products: future-machine
//	                                   # extrapolation (-simulate: scaled-machine validation)
//	affinitysim trace        [flags]   # Gantt timeline of one run (-mix, -policy, -window)
//	affinitysim extras       [flags]   # beyond-the-paper exhibits (Section 8 contrast,
//	                                   # MPL sweep, two-level-cache analysis)
//	affinitysim all          [flags]   # everything, in paper order
//	affinitysim calibrate    [flags]   # analytic-engine calibration: run the grid on both
//	                                   # engines, check the promotion golden (-write: rewrite it)
//
// Common flags:
//
//	-procs N      number of processors (default 16, as in the paper; at most 1024)
//	-seed N       root random seed (default 1; 0 also selects it)
//	-reps N       replications per (mix, policy) cell (default 5)
//	-budget SEC   Table-1 measurement compute budget in seconds (default 20)
//	-fast         scaled-down applications (replications and budget keep their flag values)
//	-csv          emit CSV instead of aligned tables (future: the sweep data)
//	-mix N        restrict the comparison to one workload mix (1-6)
//	-timeshare    include the time-sharing round-robin baseline
//	-maxproduct P largest speed-times-cache product to sweep (default 4096)
//	-detail       measure: also print per-regime run data (response times,
//	              switch counts, miss counts)
//	-simulate     future: also simulate the scaled machines directly (mix #5)
//	              and print simulated vs model relative response times
//	-policy NAME  policy for the trace subcommand (default Dyn-Aff)
//	-window SEC   trace window length in seconds (default 5, from t=0)
//	-write        calibrate: rewrite internal/analytic/promotion.json from this
//	              pass instead of checking it (run from the repository root)
//	-workers N    simulation cells run concurrently (0 = all CPUs, 1 = sequential);
//	              results are identical for every worker count
//	-stats        print the response-time decomposition table (engine
//	              counters: reallocations, P^A/P^NA charges, penalty time)
//	              after the exhibits; exhibit output is unchanged (not
//	              accepted by calibrate, whose runs record no stats)
//	-engine TIER  per-cell execution tier of compare and future (sim,
//	              analytic or auto; default sim); calibrate, which runs both
//	              engines, accepts only sim
//
// Every exhibit runs as a registered campaign through experiments.Run —
// the cell plans the affinityd service executes — so a subcommand's
// numbers are the ones the service serves for the same parameters.
//
// calibrate maintains the analytic engine's promotion golden, the
// differential record of which campaign cells the auto engine tier may
// serve from the analytic estimator. It runs the pinned calibration grid
// (experiments.CalibrationGrid) through both engines and prints the
// per-cell error table and the measured wall-clock speedup. By default it
// then checks that every cell the checked-in golden promotes is still
// within the golden's 10% tolerance; `make analytic-smoke` runs this check.
// With -write it instead rewrites the golden, promoting the cells whose
// analytic mean response time is within the stricter 8% threshold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analytic"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/measure"
	"repro/internal/memtrace"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "affinitysim:", err)
		os.Exit(1)
	}
}

type cli struct {
	// params is the campaign parameterization the flags select; every
	// subcommand's campaigns start from it. ctx carries the -stats
	// collector.
	params    experiments.CampaignParams
	ctx       context.Context
	csv       bool
	mix       int
	timeshare bool
	policy    string
	window    float64
	detail    bool
	simulate  bool
	write     bool
	common    *cliflags.Common
}

// dynamicPolicies are the Figure 5 and Figures 8-13 columns: the future
// kind's default policies.
var dynamicPolicies = defaults("future").Policies

// defaults returns the kind's normalized empty params, which hold every
// default the kind applies ({} is valid for every kind).
func defaults(kind string) experiments.CampaignParams {
	np, _ := experiments.Campaign{Kind: kind}.Normalize(experiments.CampaignParams{})
	return np
}

func parse(args []string) (string, *cli, error) {
	if len(args) == 0 {
		return "", nil, fmt.Errorf("missing subcommand (characterize|measure|compare|future|trace|extras|all|calibrate)")
	}
	cmd := args[0]
	fs := flag.NewFlagSet("affinitysim "+cmd, flag.ContinueOnError)
	c := &cli{}
	c.common = cliflags.Register(fs)
	c.common.RegisterEngine(fs)
	// The flag defaults are the campaigns' own: a future campaign's params
	// hold every field the flags set, so its normalized empty params carry
	// every default.
	def := defaults("future")
	procs := fs.Int("procs", def.Procs, "number of processors")
	reps := fs.Int("reps", def.Replications, "replications per cell")
	budget := fs.Float64("budget", def.BudgetSec, "Table-1 compute budget (seconds)")
	fast := fs.Bool("fast", false, "scaled-down quick mode")
	fs.BoolVar(&c.csv, "csv", false, "emit CSV tables")
	fs.IntVar(&c.mix, "mix", 0, "restrict to one workload mix (1-6, 0 = all)")
	fs.BoolVar(&c.timeshare, "timeshare", false, "include the time-sharing baseline")
	maxProduct := fs.Float64("maxproduct", def.MaxProduct, "largest speed*cache product")
	fs.StringVar(&c.policy, "policy", "Dyn-Aff", "policy for the trace subcommand")
	fs.Float64Var(&c.window, "window", 5, "trace window length (seconds)")
	fs.BoolVar(&c.detail, "detail", false, "measure: print per-regime run details")
	fs.BoolVar(&c.simulate, "simulate", false, "future: also simulate the scaled machines directly")
	fs.BoolVar(&c.write, "write", false, "calibrate: rewrite the promotion golden instead of checking it")
	if err := fs.Parse(args[1:]); err != nil {
		return "", nil, err
	}
	// The engine tier only exists on the grid-shaped subcommands (compare,
	// future, and all, which runs both); elsewhere -engine analytic/auto
	// would be silently ignored, so reject it up front with the same
	// field-path error the service returns for the kind the subcommand
	// drives. Grid subcommands still validate the tier name itself.
	engineKind := map[string]string{
		"characterize": "characterize",
		"measure":      "table1",
		"trace":        "trace",
		"extras":       "relatedwork",
		"compare":      "compare",
		"future":       "future",
		"all":          "future",
	}
	if k, ok := engineKind[cmd]; ok {
		if err := experiments.ValidateEngine(k, c.common.Engine); err != nil {
			return "", nil, err
		}
	}
	if cmd == "calibrate" {
		// The calibration grid runs every cell on both engines, outside the
		// campaigns: an -engine tier would be ignored, and the -stats table
		// would read zero in every row.
		if c.common.Engine != experiments.EngineSim {
			return "", nil, fmt.Errorf("-engine: calibrate runs every cell on both engines")
		}
		if c.common.Stats {
			return "", nil, fmt.Errorf("-stats: calibrate records no simulation stats")
		}
	}
	// On the wire 0 selects a field's default, so these flags reject it
	// themselves.
	switch {
	case *procs < 1:
		return "", nil, fmt.Errorf("-procs must be >= 1, got %d", *procs)
	case *reps < 1:
		return "", nil, fmt.Errorf("-reps must be >= 1, got %d", *reps)
	case !(*budget > 0):
		return "", nil, fmt.Errorf("-budget must be > 0, got %v", *budget)
	}
	// -reps and -budget always carry a value (their flag defaults unless
	// set), so -fast changes only the application scale here, whereas a
	// request's fast:true also selects the preset's replications and
	// budget.
	c.params = experiments.CampaignParams{
		Fast:         *fast,
		Procs:        *procs,
		Replications: *reps,
		BudgetSec:    *budget,
		MaxProduct:   *maxProduct,
		Seed:         c.common.Seed,
		Engine:       c.common.Engine,
		Workers:      c.common.Workers,
	}
	// Normalizing as a future campaign checks every field before anything
	// runs. A zero -seed or -maxproduct selects the default, which the work
	// outside the campaigns (trace, measure -detail, future's sweep) uses.
	np, err := experiments.Campaign{Kind: "future"}.Normalize(c.params)
	if err != nil {
		return "", nil, err
	}
	c.params.Seed, c.params.MaxProduct = np.Seed, np.MaxProduct
	var stats *obs.CampaignStats
	if c.common.Stats {
		stats = obs.NewCampaignStats()
	}
	c.ctx = obs.WithCollector(context.Background(), stats)
	return cmd, c, nil
}

func run(args []string) (err error) {
	cmd, c, err := parse(args)
	if err != nil {
		return err
	}
	stopProf, err := c.common.StartProfiling()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()
	if err := c.dispatch(cmd); err != nil {
		return err
	}
	// With -stats, the decomposition table totals every run the
	// subcommand made.
	if stats := obs.CollectorFrom(c.ctx); stats != nil {
		t := experiments.StatsReport(stats)
		return t.Write(os.Stdout)
	}
	return nil
}

func (c *cli) dispatch(cmd string) error {
	switch cmd {
	case "characterize":
		return c.characterize()
	case "measure":
		return c.measure()
	case "compare":
		return c.compare()
	case "future":
		return c.future()
	case "trace":
		return c.trace()
	case "extras":
		return c.extras()
	case "calibrate":
		return c.calibrate()
	case "all":
		if err := c.characterize(); err != nil {
			return err
		}
		if err := c.measure(); err != nil {
			return err
		}
		if err := c.compare(); err != nil {
			return err
		}
		return c.future()
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// campaign runs one registered campaign kind with the CLI's options;
// set adds the kind's own parameters.
func (c *cli) campaign(kind string, set func(*experiments.CampaignParams)) (any, error) {
	p := c.params
	if set != nil {
		set(&p)
	}
	return experiments.Run(c.ctx, kind, p)
}

// simOnly clears the engine tier for the kinds without a simulation grid
// (characterize, table1) that future and all run next to their compare
// grid: -engine selects how the grid's cells run, and these kinds always
// simulate.
func simOnly(p *experiments.CampaignParams) { p.Engine = "" }

// comparePolicies is the compare grid's policy axis: the compare kind's
// default policies, with -timeshare the time-sharing baseline after them.
func (c *cli) comparePolicies(p *experiments.CampaignParams) {
	p.Mix = c.mix
	if c.timeshare {
		p.Policies = append(defaults("compare").Policies, "TimeShare-RR")
	}
}

// trace runs one mix under one policy with tracing enabled and renders the
// processor-allocation Gantt timeline plus an event summary.
func (c *cli) trace() error {
	mixNo := c.mix
	if mixNo == 0 {
		mixNo = 5
	}
	mix, err := workload.MixByNumber(mixNo)
	if err != nil {
		return err
	}
	pol, ok := core.ByName(c.policy)
	if !ok {
		return fmt.Errorf("unknown policy %q", c.policy)
	}
	mc := machine.Symmetry()
	mc.Processors = c.params.Procs
	log := &trace.Log{}
	res, err := sched.Run(sched.Config{
		Machine: mc,
		Policy:  pol,
		Apps:    mix.Apps(c.params.Seed),
		Seed:    c.params.Seed,
		Trace:   log,
	})
	if err != nil {
		return err
	}
	obs.CollectorFrom(c.ctx).Add(pol.Name(), res.Stats)
	end := simtime.Time(0).Add(simtime.Seconds(c.window))
	if end > res.Makespan {
		end = res.Makespan
	}
	fmt.Printf("%s on %s, %d processors — makespan %v, %d trace events\n\n",
		mix, pol.Name(), mc.Processors, res.Makespan, log.Len())
	fmt.Print(trace.Gantt(log.Events(), mc.Processors, 0, end, 100, true))
	fmt.Println()
	return trace.WriteSummary(os.Stdout, log)
}

// extras runs the beyond-the-paper exhibits.
func (c *cli) extras() error {
	rw, err := c.campaign("relatedwork", nil)
	if err != nil {
		return err
	}
	if err := c.emit(experiments.RelatedWorkTable(rw.(experiments.RelatedWorkCampaignResult).Result)); err != nil {
		return err
	}
	mplPolicies := []string{"Equipartition", "Dynamic", "Dyn-Aff"}
	pts, err := experiments.MPLSweep(c.ctx, c.params, 4, mplPolicies)
	if err != nil {
		return err
	}
	if err := c.emit(experiments.MPLTable(pts, mplPolicies)); err != nil {
		return err
	}
	// The Section-7.2 two-level-cache feasibility analysis.
	rows, err := model.AnalyzeHierarchy(model.SymmetryHierarchy(),
		[]float64{1, 2, 4, 8, 16, 32, 64})
	if err != nil {
		return err
	}
	t := report.Table{
		Title: "Section 7.2 — can larger hit rates replace faster miss resolution?",
		Headers: []string{"speed", "required L1 hit rate", "achievable?",
			"slowdown with sqrt(speed) memory"},
	}
	for _, r := range rows {
		feas := "yes"
		if !r.Feasible {
			feas = "NO"
		}
		t.AddRow(report.F(r.Speed, 0), report.F(r.RequiredH1, 4), feas,
			report.F(r.EffectiveSlowdown, 2))
	}
	return c.emit(t)
}

func (c *cli) emit(t report.Table) error {
	if c.csv {
		return t.WriteCSV(os.Stdout)
	}
	if err := t.Write(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func (c *cli) characterize() error {
	res, err := c.campaign("characterize", simOnly)
	if err != nil {
		return err
	}
	chars := res.(experiments.CharacterizeCampaignResult).Apps
	if err := c.emit(experiments.CharacterTable(chars)); err != nil {
		return err
	}
	return c.emit(experiments.ProfileTable(chars))
}

func (c *cli) measure() error {
	if c.detail {
		return c.measureDetail()
	}
	res, err := c.campaign("table1", simOnly)
	if err != nil {
		return err
	}
	return c.emitTable1(res.(experiments.Table1CampaignResult))
}

func (c *cli) emitTable1(res experiments.Table1CampaignResult) error {
	for _, t := range experiments.Table1Report(res) {
		if err := c.emit(t); err != nil {
			return err
		}
	}
	return nil
}

// measureDetail prints Table 1 and the per-regime runs behind it. No
// campaign result carries those runs, so the protocol runs here directly,
// once, and Table 1 is rendered from the same runs through
// experiments.Table1Result — the table1 campaign's result for them.
func (c *cli) measureDetail() error {
	// The table1 campaign's params: its budget, seed and workers.
	np, err := experiments.Campaign{Kind: "table1"}.Normalize(c.params)
	if err != nil {
		return err
	}
	mc := machine.Symmetry()
	mc.Processors = 1 // the paper's measurement uses a single processor
	budget := simtime.Seconds(np.BudgetSec)
	t1, err := measure.BuildTable1(c.ctx, mc, memtrace.Patterns(), measure.DefaultQs(),
		budget, np.Seed, np.Workers)
	if err != nil {
		return err
	}
	if err := c.emitTable1(experiments.Table1Result(c.ctx, t1, mc, budget)); err != nil {
		return err
	}
	t := report.Table{
		Title: "Per-regime run detail",
		Headers: []string{"Q", "measured", "regime", "intervening",
			"RT (s)", "switches", "misses", "miss ratio"},
	}
	addRun := func(q simtime.Duration, app, intervening string, r measure.RunResult) {
		ratio := 0.0
		if r.Accesses > 0 {
			ratio = float64(r.Misses) / float64(r.Accesses)
		}
		t.AddRow(q.String(), app, r.Regime.String(), intervening,
			report.F(r.ResponseTime.SecondsF(), 3),
			fmt.Sprintf("%d", r.Switches),
			fmt.Sprintf("%d", r.Misses),
			report.F(ratio, 4))
	}
	for _, q := range t1.Qs {
		for _, app := range t1.Apps {
			pen := t1.Cells[q][app]
			addRun(q, app, "-", pen.Stationary)
			addRun(q, app, "-", pen.Migrating)
			for _, iv := range t1.Apps {
				if r, ok := pen.Multi[iv]; ok {
					addRun(q, app, iv, r)
				}
			}
		}
	}
	return t.Write(os.Stdout)
}

func (c *cli) compare() error {
	v, err := c.campaign("compare", c.comparePolicies)
	if err != nil {
		return err
	}
	res := v.(experiments.CompareCampaignResult)
	fig5, err := experiments.Figure5Report(res, dynamicPolicies)
	if err != nil {
		return err
	}
	if err := c.emit(fig5); err != nil {
		return err
	}
	fig6, err := experiments.Figure5Report(res, []string{"Dyn-Aff-NoPri"})
	if err != nil {
		return err
	}
	fig6.Title = "Figure 6 — Dyn-Aff-NoPri response times relative to Equipartition"
	if err := c.emit(fig6); err != nil {
		return err
	}
	if c.timeshare {
		ts, err := experiments.Figure5Report(res, []string{"TimeShare-RR"})
		if err != nil {
			return err
		}
		ts.Title = "Extra — TimeShare-RR (quantum-driven) relative to Equipartition"
		if err := c.emit(ts); err != nil {
			return err
		}
	}
	var homog []int
	for _, n := range res.Mixes {
		if n == 5 || n == c.mix {
			t3, err := experiments.Table3Report(res, n, dynamicPolicies)
			if err != nil {
				return err
			}
			if err := c.emit(t3); err != nil {
				return err
			}
		}
		if mix, err := workload.MixByNumber(n); err == nil && mix.Homogeneous() {
			homog = append(homog, n)
		}
	}
	if len(homog) > 0 {
		t4, err := experiments.Table4Report(res, homog, "Dyn-Aff", "Dyn-Aff-NoPri")
		if err != nil {
			return err
		}
		if err := c.emit(t4); err != nil {
			return err
		}
	}
	return nil
}

// future runs the future kind's grid — the compare cells and the table1
// cells — as those two campaigns, so the extracted model scenarios stay
// at hand for the crossover table and -simulate, then sweeps them exactly
// as the future kind's merge does.
func (c *cli) future() error {
	cmp, err := c.campaign("compare", c.comparePolicies)
	if err != nil {
		return err
	}
	t1, err := c.campaign("table1", simOnly)
	if err != nil {
		return err
	}
	scen, err := experiments.FutureScenarios(cmp.(experiments.CompareCampaignResult),
		t1.(experiments.Table1CampaignResult).Table1())
	if err != nil {
		return err
	}
	sweep, err := experiments.FutureSweep(scen, dynamicPolicies, c.params.MaxProduct)
	if err != nil {
		return err
	}
	if c.csv {
		err = writeSweepCSV(sweep)
	} else {
		err = c.writeCharts(sweep, scen)
	}
	if err != nil || !c.simulate {
		return err
	}
	return c.simulateFuture(scen)
}

// writeCharts prints Figures 8-13 and each scenario's crossover product.
func (c *cli) writeCharts(sweep experiments.FutureCampaignResult, scen map[experiments.ScenarioKey]model.Scenario) error {
	charts, err := experiments.FutureCharts(sweep, dynamicPolicies)
	if err != nil {
		return err
	}
	for _, ch := range charts {
		if err := ch.Write(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	products := model.Products(c.params.MaxProduct, 4)
	t := report.Table{
		Title:   "Crossover products (relative RT reaches 1.0; 0 = never within sweep)",
		Headers: append([]string{"scenario"}, dynamicPolicies...),
	}
	for _, s := range sweep.Scenarios {
		key := experiments.ScenarioKey{Mix: s.Mix, App: s.App}
		sc := scen[key]
		row := []string{key.String()}
		for _, pol := range dynamicPolicies {
			if _, ok := sc.Policies[pol]; !ok {
				row = append(row, "-")
				continue
			}
			cross, err := sc.Crossover(pol, products)
			if err != nil {
				return err
			}
			row = append(row, report.F(cross, 0))
		}
		t.AddRow(row...)
	}
	return t.Write(os.Stdout)
}

// writeSweepCSV prints the sweep as scenario, policy, product, relative RT
// rows.
func writeSweepCSV(sweep experiments.FutureCampaignResult) error {
	t := report.Table{Headers: []string{"scenario", "policy", "product", "relative_rt"}}
	for _, s := range sweep.Scenarios {
		key := experiments.ScenarioKey{Mix: s.Mix, App: s.App}
		for _, sw := range s.Policies {
			for i, y := range sw.RelRT {
				t.AddRow(key.String(), sw.Policy, report.F(sweep.Products[i], 2), report.F(y, 5))
			}
		}
	}
	return t.WriteCSV(os.Stdout)
}

// simulateFuture re-runs mix #5 on directly scaled machines (the
// futuresim kind at its defaults) and prints the simulated relative
// response times next to the analytic model's for the mix's GRAVITY job
// ("-" where the comparison did not cover mix #5).
func (c *cli) simulateFuture(scen map[experiments.ScenarioKey]model.Scenario) error {
	def := defaults("futuresim")
	v, err := c.campaign("futuresim", nil)
	if err != nil {
		return err
	}
	modelRel := make(map[string][]float64)
	if sc, ok := scen[experiments.ScenarioKey{Mix: def.Mix, App: "GRAVITY"}]; ok {
		for _, pol := range def.Policies {
			ys, err := sc.SweepProduct(pol, def.Products)
			if err != nil {
				return err
			}
			modelRel[pol] = ys
		}
	}
	tab := experiments.FutureSimTable(v.(experiments.FutureSimCampaignResult), modelRel, def.Policies)
	tab.Title = fmt.Sprintf("Mix #%d — simulated scaled machines vs analytic model (model column: GRAVITY job)", def.Mix)
	return tab.Write(os.Stdout)
}

// promotionPath is the promotion golden calibrate -write rewrites,
// relative to the repository root.
const promotionPath = "internal/analytic/promotion.json"

// calibrate runs the differential calibration grid, prints its per-cell
// error table, and then checks the checked-in promotion golden against it
// or, with -write, rewrites the golden from it.
func (c *cli) calibrate() error {
	cal, err := experiments.Calibrate(c.ctx, c.params.Workers)
	if err != nil {
		return err
	}
	if err := writeCalibration(cal); err != nil {
		return err
	}
	if !c.write {
		golden := analytic.DefaultTable()
		promoted, err := cal.Check(golden)
		if err != nil {
			return err
		}
		fmt.Printf("\nall %d golden-promoted cells within tolerance %.0f%%\n", promoted, 100*golden.TolRelErr)
		return nil
	}
	data, err := json.MarshalIndent(cal.Table, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(promotionPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d cells, %d promoted (threshold %.0f%%)\n", promotionPath,
		len(cal.Table.Cells), cal.Table.Envelope().Size(), 100*cal.Table.PromoteRelErr)
	return nil
}

// writeCalibration prints the per-cell error table and the wall-clock
// totals of a calibration pass.
func writeCalibration(cal *experiments.Calibration) error {
	t := report.Table{
		Title:   "Differential calibration — analytic vs exact simulation",
		Headers: []string{"cell", "sim RT (s)", "analytic RT (s)", "rel err", "promoted"},
	}
	for _, cell := range cal.Table.Cells {
		label := fmt.Sprintf("compare mix=%d %s", cell.Mix, cell.Policy)
		if cell.Kind == "futuresim" {
			label = fmt.Sprintf("futuresim mix=%d p=%g %s", cell.Mix, cell.Product, cell.Policy)
		}
		m := cell.Metrics[analytic.PromotionMetric]
		promoted := ""
		if cell.Promoted {
			promoted = "yes"
		}
		t.AddRow(label, report.F(m.Sim, 3), report.F(m.Analytic, 3),
			fmt.Sprintf("%.1f%%", 100*m.RelErr), promoted)
	}
	if err := t.Write(os.Stdout); err != nil {
		return err
	}
	speedup := 0.0
	if cal.AnalyticSeconds > 0 {
		speedup = cal.SimSeconds / cal.AnalyticSeconds
	}
	fmt.Printf("\nwall clock: sim %.2fs, analytic %.3fs (%.0fx)\n",
		cal.SimSeconds, cal.AnalyticSeconds, speedup)
	return nil
}
