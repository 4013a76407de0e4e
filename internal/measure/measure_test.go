package measure

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memtrace"
	"repro/internal/parallel"
	"repro/internal/simtime"
)

// fast returns options that keep unit-test runs quick: a short budget with
// plenty of switch points.
func fast(q simtime.Duration) Options {
	return Options{Q: q, Budget: 3 * simtime.Second, Seed: 1}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{Q: 0, Budget: simtime.Second}).Validate(); err == nil {
		t.Error("zero Q accepted")
	}
	if err := (Options{Q: simtime.Second, Budget: simtime.Millisecond}).Validate(); err == nil {
		t.Error("budget < Q accepted")
	}
	if err := fast(25 * simtime.Millisecond).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestRegimeString(t *testing.T) {
	if Stationary.String() != "stationary" || Migrating.String() != "migrating" ||
		Multiprog.String() != "multiprog" {
		t.Error("regime names wrong")
	}
	if Regime(9).String() == "" {
		t.Error("unknown regime has empty name")
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	mc := machine.Symmetry()
	mc.Processors = 0
	if _, err := Run(mc, memtrace.MVAPattern(), memtrace.Pattern{}, Stationary, fast(25*simtime.Millisecond)); err == nil {
		t.Error("bad machine accepted")
	}
	if _, err := Run(machine.Symmetry(), memtrace.MVAPattern(), memtrace.Pattern{}, Stationary, Options{}); err == nil {
		t.Error("bad options accepted")
	}

	// An invalid pattern is refused with memtrace's reason, not a panic in
	// the generator, and a rejected cell builds no stream.
	bad := memtrace.Pattern{Name: "bad"}
	mva, opts := memtrace.MVAPattern(), fast(25*simtime.Millisecond)
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "memtrace: bad: Gap must be positive") {
			t.Errorf("%s: err = %v, want memtrace's refusal", what, err)
		}
	}
	for _, regime := range []Regime{Stationary, Migrating, Multiprog} {
		_, err := Run(machine.Symmetry(), bad, mva, regime, opts)
		refused("Run with a bad measured pattern, "+regime.String(), err)
	}
	_, err := Run(machine.Symmetry(), mva, bad, Multiprog, opts)
	refused("Run with a bad intervening pattern", err)
	_, err = MeasurePenalties(machine.Symmetry(), bad, nil, opts)
	refused("MeasurePenalties with a bad measured pattern", err)
	_, err = MeasurePenalties(machine.Symmetry(), mva, []memtrace.Pattern{memtrace.MatrixPattern(), bad}, opts)
	refused("MeasurePenalties with a bad intervening pattern", err)
	set := NewStreamSet([]memtrace.Pattern{mva, bad}, opts.Budget, opts.Seed)
	for measured := range 2 {
		_, err := set.MeasureCell(machine.Symmetry(), measured, opts.Q)
		refused(fmt.Sprintf("MeasureCell %d of a set with a bad pattern", measured), err)
	}
	if n := set.built.Load(); n != 0 {
		t.Errorf("rejected cells built %d streams, want 0", n)
	}
}

func TestStationaryBaselineProperties(t *testing.T) {
	mc := machine.Symmetry()
	opts := fast(25 * simtime.Millisecond)
	res, err := Run(mc, memtrace.MatrixPattern(), memtrace.Pattern{}, Stationary, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResponseTime < opts.Budget {
		t.Errorf("response time %v shorter than pure compute budget %v", res.ResponseTime, opts.Budget)
	}
	if res.Switches == 0 {
		t.Error("no switches occurred")
	}
	if res.Misses == 0 || res.Misses >= res.Accesses {
		t.Errorf("implausible miss count %d of %d", res.Misses, res.Accesses)
	}
}

func TestMigratingCostsMoreThanStationary(t *testing.T) {
	mc := machine.Symmetry()
	opts := fast(25 * simtime.Millisecond)
	for _, p := range memtrace.Patterns() {
		stat, err := Run(mc, p, memtrace.Pattern{}, Stationary, opts)
		if err != nil {
			t.Fatal(err)
		}
		mig, err := Run(mc, p, memtrace.Pattern{}, Migrating, opts)
		if err != nil {
			t.Fatal(err)
		}
		if mig.ResponseTime <= stat.ResponseTime {
			t.Errorf("%s: migrating RT %v not greater than stationary %v",
				p.Name, mig.ResponseTime, stat.ResponseTime)
		}
		if mig.Misses <= stat.Misses {
			t.Errorf("%s: migrating misses %d not greater than stationary %d",
				p.Name, mig.Misses, stat.Misses)
		}
	}
}

func TestMultiprogBetweenStationaryAndMigrating(t *testing.T) {
	// The affinity penalty must be positive but smaller than the
	// no-affinity penalty: an intervening task ejects only part of the
	// returning task's context.
	mc := machine.Symmetry()
	opts := fast(25 * simtime.Millisecond)
	pen, err := MeasurePenalties(mc, memtrace.MVAPattern(), []memtrace.Pattern{memtrace.MatrixPattern()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	pa := pen.PA["MATRIX"]
	if pa <= 0 {
		t.Fatalf("P^A = %v, want positive", pa)
	}
	if pa >= pen.PNA {
		t.Fatalf("P^A %v not less than P^NA %v", pa, pen.PNA)
	}
}

func TestPenaltiesGrowWithQ(t *testing.T) {
	// Paper: both penalties increase with Q, because longer quanta touch
	// (and let intervening tasks eject) more data.
	mc := machine.Symmetry()
	prevPNA := simtime.Duration(-1)
	for _, q := range []simtime.Duration{25 * simtime.Millisecond, 100 * simtime.Millisecond} {
		opts := Options{Q: q, Budget: 5 * simtime.Second, Seed: 1}
		pen, err := MeasurePenalties(mc, memtrace.MVAPattern(), nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		if pen.PNA <= prevPNA {
			t.Errorf("P^NA at Q=%v is %v, not greater than %v at smaller Q", q, pen.PNA, prevPNA)
		}
		prevPNA = pen.PNA
	}
}

func TestPNAExceedsSwitchPathAtLargeQ(t *testing.T) {
	// The paper's headline Section-4 observation: the cache effect of a
	// reallocation can exceed the 750 µs kernel path length.
	mc := machine.Symmetry()
	opts := Options{Q: 100 * simtime.Millisecond, Budget: 5 * simtime.Second, Seed: 1}
	pen, err := MeasurePenalties(mc, memtrace.MVAPattern(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pen.PNA <= mc.SwitchPath {
		t.Errorf("P^NA %v does not exceed switch path %v", pen.PNA, mc.SwitchPath)
	}
}

func TestDeterminism(t *testing.T) {
	mc := machine.Symmetry()
	opts := fast(25 * simtime.Millisecond)
	a, err := Run(mc, memtrace.GravityPattern(), memtrace.MVAPattern(), Multiprog, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mc, memtrace.GravityPattern(), memtrace.MVAPattern(), Multiprog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical runs differ:\n%+v\n%+v", a, b)
	}
}

func TestPerSwitch(t *testing.T) {
	if got := perSwitch(1000, 10); got != 100 {
		t.Errorf("perSwitch = %v", got)
	}
	if got := perSwitch(1000, 0); got != 0 {
		t.Errorf("perSwitch with zero switches = %v", got)
	}
	if got := perSwitch(-50, 10); got != 0 {
		t.Errorf("negative delta not clamped: %v", got)
	}
}

func TestBuildTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("table build is seconds-long")
	}
	mc := machine.Symmetry()
	qs := []simtime.Duration{25 * simtime.Millisecond, 100 * simtime.Millisecond}
	tbl, err := BuildTable1(context.Background(), mc, memtrace.Patterns(), qs, 4*simtime.Second, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Apps) != 3 {
		t.Fatalf("apps = %v", tbl.Apps)
	}
	for _, q := range qs {
		for _, app := range tbl.Apps {
			pen, ok := tbl.Cells[q][app]
			if !ok {
				t.Fatalf("missing cell %v/%s", q, app)
			}
			if pen.PNA <= 0 {
				t.Errorf("%s at Q=%v: P^NA = %v, want positive", app, q, pen.PNA)
			}
			if len(pen.PA) != 3 {
				t.Errorf("%s at Q=%v: %d P^A entries, want 3", app, q, len(pen.PA))
			}
			for iv, pa := range pen.PA {
				if pa < 0 {
					t.Errorf("%s/%s: negative P^A %v", app, iv, pa)
				}
				if pa >= pen.PNA {
					t.Errorf("%s/%s at Q=%v: P^A %v >= P^NA %v", app, iv, q, pa, pen.PNA)
				}
			}
		}
	}
}

// TestMeasureCellMatchesBuildTable1 checks that a cell run alone, against
// a fresh stream set, reproduces the corresponding cell of a BuildTable1
// grid, whose cells share one set, exactly — the contract the experiments
// layer's cell decomposition relies on.
func TestMeasureCellMatchesBuildTable1(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement runs in -short mode")
	}
	mc := machine.Symmetry()
	pats := memtrace.Patterns()
	qs := []simtime.Duration{25 * simtime.Millisecond, 100 * simtime.Millisecond}
	budget := 500 * simtime.Millisecond
	tbl, err := BuildTable1(context.Background(), mc, pats, qs, budget, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		for pi, p := range pats {
			pen, err := NewStreamSet(pats, budget, 7).MeasureCell(mc, pi, q)
			if err != nil {
				t.Fatalf("%s at Q=%v: %v", p.Name, q, err)
			}
			if !reflect.DeepEqual(pen, tbl.Cells[q][p.Name]) {
				t.Errorf("%s at Q=%v: fresh-set cell differs from BuildTable1 cell\ncell:  %+v\ntable: %+v",
					p.Name, q, pen, tbl.Cells[q][p.Name])
			}
		}
	}
	set := NewStreamSet(pats, budget, 7)
	if _, err := set.MeasureCell(mc, -1, qs[0]); err == nil {
		t.Error("negative measured index accepted")
	}
	if _, err := set.MeasureCell(mc, len(pats), qs[0]); err == nil {
		t.Error("out-of-range measured index accepted")
	}
	if _, err := set.MeasureCell(mc, 0, 2*budget); err == nil {
		t.Error("Q longer than the budget accepted")
	}
	if n := set.built.Load(); n != 0 {
		t.Errorf("rejected cells built %d streams, want 0", n)
	}
}

// TestStreamSetBuildsEachStreamOnce runs a full grid on one set and checks
// that each of its 2×len(patterns) streams was built exactly once, at one
// worker and at several, by MeasureCell calls and by BuildTable1's cells,
// and that BuildTable1's table is the same at one worker and at three.
func TestStreamSetBuildsEachStreamOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement runs in -short mode")
	}
	mc := machine.Symmetry()
	pats := memtrace.Patterns()
	qs := DefaultQs()
	for _, workers := range []int{1, 4} {
		set := NewStreamSet(pats, 500*simtime.Millisecond, 3)
		err := parallel.ForEach(context.Background(), workers, len(qs)*len(pats), func(_ context.Context, idx int) error {
			_, err := set.MeasureCell(mc, idx%len(pats), qs[idx/len(pats)])
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int(set.built.Load()), 2*len(pats); got != want {
			t.Errorf("workers %d: %d streams built, want %d", workers, got, want)
		}
	}
	var tables []Table1
	for _, workers := range []int{1, 3} {
		set := NewStreamSet(pats, 500*simtime.Millisecond, 3)
		tbl, err := set.table1(context.Background(), mc, qs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := int(set.built.Load()), 2*len(pats); got != want {
			t.Errorf("BuildTable1 at %d workers: %d streams built, want %d", workers, got, want)
		}
		tables = append(tables, tbl)
	}
	if !reflect.DeepEqual(tables[0], tables[1]) {
		t.Errorf("BuildTable1 differs between 1 and 3 workers:\n%+v\n%+v", tables[0], tables[1])
	}
}

// TestStreamReplaysGenerator checks that a stream's runs decode to exactly
// the byte addresses its generator emits, at both address bases the
// protocol uses, and that no run could have been merged into the one
// before it.
func TestStreamReplaysGenerator(t *testing.T) {
	budget := 200 * simtime.Millisecond
	for _, p := range memtrace.Patterns() {
		for _, base := range []uint64{0, interveningBase} {
			s, err := newStream(p, base, 5, budget)
			if err != nil {
				t.Fatal(err)
			}
			g := memtrace.NewGenerator(p, base, 5)
			want := make([]uint64, g.RefsFor(budget))
			g.FillBlock(want)
			got := decode(s)
			if len(got) != len(want) || s.refs != len(want) {
				t.Fatalf("%s: %d references (refs %d), want %d", p.Name, len(got), s.refs, len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s base %#x: reference %d = %#x, want %#x", p.Name, base, i, got[i], want[i])
				}
			}
			rs := decodeRuns(s)
			for i := 1; i < len(rs); i++ {
				if rs[i].line == rs[i-1].line && rs[i-1].count < maxRun {
					t.Fatalf("%s: run %d continues run %d of %d references", p.Name, i, i-1, rs[i-1].count)
				}
			}
			if ratio := float64(len(s.runs)) / float64(s.refs); ratio < 0.4 || ratio > 0.65 {
				t.Errorf("%s: %d run words for %d references (%.2f), want 0.40-0.65", p.Name, len(s.runs), s.refs, ratio)
			}
		}
	}
}

// streamRun is one decoded run of a stream.
type streamRun struct {
	line  uint64
	count int
}

// decodeRuns decodes a stream's run words, failing on an empty run.
func decodeRuns(s *Stream) []streamRun {
	var out []streamRun
	var line uint64
	for i := 0; i < len(s.runs); {
		var k int
		line, k, i = nextRun(s.runs, i, line)
		if k == 0 {
			panic("measure: empty run")
		}
		out = append(out, streamRun{line, k})
	}
	return out
}

// decode expands a stream's prefix into byte addresses.
func decode(s *Stream) []uint64 {
	var out []uint64
	for _, r := range decodeRuns(s) {
		for k := r.count; k > 0; k-- {
			out = append(out, s.base+r.line*memtrace.LineBytes)
		}
	}
	return out
}

// TestStreamBytesPerRun holds each built-in pattern's stream, measured and
// intervening, to at most 2.1 bytes per run of identical consecutive
// references at the fast (4 s) and full (20 s) Table-1 budgets: splitting
// long runs and escaping far jumps may add at most 5% words. It also
// checks that runsEstimate sized the slice without a regrowth.
func TestStreamBytesPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full-budget streams")
	}
	for _, budget := range []simtime.Duration{4 * simtime.Second, 20 * simtime.Second} {
		for _, p := range memtrace.Patterns() {
			for _, s := range []func() (*Stream, error){
				func() (*Stream, error) { return measuredStream(p, budget, 1) },
				func() (*Stream, error) { return interveningStream(p, budget, 1) },
			} {
				st, err := s()
				if err != nil {
					t.Fatal(err)
				}
				runs := 0
				prev := streamRun{count: -1}
				for _, r := range decodeRuns(st) {
					if r.line != prev.line || prev.count < 0 {
						runs++
					}
					prev = r
				}
				if per := 2 * float64(len(st.runs)) / float64(runs); per > 2.1 {
					t.Errorf("%s at %v (base %#x): %d words for %d runs, %.3f bytes a run, want <= 2.1",
						p.Name, budget, st.base, len(st.runs), runs, per)
				}
				if est := runsEstimate(p, st.refs); cap(st.runs) != est {
					t.Errorf("%s at %v: %d words outgrew the estimate %d", p.Name, budget, len(st.runs), est)
				}
			}
		}
	}
}

// TestStreamLineIndexOverflow checks that a stream whose line indices
// outgrow the 24-bit line index is refused with an error, not wrapped or
// panicked on. A huge region relocated every reference crosses 2^24
// lines within a handful of references.
func TestStreamLineIndexOverflow(t *testing.T) {
	const lines = 1 << 22
	pat := memtrace.Pattern{
		Name:       "SPRAWL",
		Gap:        1,
		Components: []memtrace.Component{{Lines: lines, Period: lines}},
		PhaseEvery: 1,
	}
	if _, err := newStream(pat, 0, 1, 4096); err == nil {
		t.Fatal("a stream past 2^24 lines was built")
	}
	if _, err := NewStreamSet([]memtrace.Pattern{pat}, 4096, 1).MeasureCell(machine.Symmetry(), 0, 1024); err == nil {
		t.Fatal("a cell over an overflowing stream succeeded")
	}
	// The first two references, at the starts of phases 1 and 2, sit at
	// lines 1*(lines+1024) and 2*(lines+1024), under 2^24.
	if _, err := newStream(pat, 0, 1, 2); err != nil {
		t.Fatalf("a stream below 2^24 lines was refused: %v", err)
	}
}

// oracleRun is the per-reference protocol the run-length replay must match:
// each reference drawn from a generator and sent through the cache, and
// the intervening program drawn one reference at a time for q of its own
// time. It also reports how many intervening references the run consumed.
func oracleRun(t *testing.T, mc machine.Config, measured, intervening memtrace.Pattern, regime Regime, opts Options) (RunResult, int) {
	t.Helper()
	c := cache.MustNew(mc.Cache)
	mg := memtrace.NewGenerator(measured, 0, opts.Seed)
	var ig *memtrace.Generator
	if regime == Multiprog {
		ig = memtrace.NewGenerator(intervening, interveningBase, opts.Seed^0x5bd1e995)
	}
	n := mg.RefsFor(opts.Budget)
	step := mc.Compute(measured.Gap)
	var (
		own        simtime.Duration
		nextSwitch = opts.Q
		res        = RunResult{Regime: regime, Accesses: uint64(n)}
		consumed   int
	)
	for i := 0; i < n; i++ {
		addr, _ := mg.Next()
		own += step
		if !c.Access(ownerMeasured, addr) {
			res.Misses++
			own += mc.LineFill
		}
		if own < nextSwitch {
			continue
		}
		res.Switches++
		own += mc.SwitchPath
		switch regime {
		case Migrating:
			c.Flush()
		case Multiprog:
			istep := mc.Compute(intervening.Gap)
			for it := simtime.Duration(0); it < opts.Q; consumed++ {
				addr, _ := ig.Next()
				it += istep
				if !c.Access(ownerIntervening, addr) {
					it += mc.LineFill
				}
			}
		}
		nextSwitch = own + opts.Q
	}
	res.ResponseTime = own
	return res, consumed
}

// oracleCase is one (Q, budget) case of the oracle tests.
type oracleCase struct {
	q, budget simtime.Duration
}

// oracleGrid returns the machines, patterns and cases the oracle tests
// replay (see TestRunStreamsMatchesPerReferenceOracle): the Symmetry and
// two other geometries; the built-in patterns, LAZY, whose runs reach
// maxRun, and SLOW, whose short prefix the intervening program runs past;
// and a 7 µs quantum at two budgets, a 1 ms and a 25 ms one.
func oracleGrid() ([]machine.Config, []memtrace.Pattern, []oracleCase) {
	lazy := memtrace.Pattern{
		Name:       "LAZY",
		Gap:        5 * simtime.Microsecond,
		Components: []memtrace.Component{{Lines: 6000, Period: 60 * simtime.Second}},
	}
	slow := memtrace.Pattern{ // few, long references: a short prefix
		Name:       "SLOW",
		Gap:        40 * simtime.Microsecond,
		Components: []memtrace.Component{{Lines: 300, Period: 24 * simtime.Millisecond}},
	}
	var machines []machine.Config
	for _, geom := range []cache.Config{
		cache.SymmetryConfig(),
		{SizeBytes: 32 << 10, LineBytes: 32, Ways: 4},
		{SizeBytes: 8 << 10, LineBytes: 8, Ways: 1},
	} {
		mc := machine.Symmetry()
		mc.Cache = geom
		machines = append(machines, mc)
	}
	pats := append(memtrace.Patterns(), lazy, slow)
	cases := []oracleCase{
		{7 * simtime.Microsecond, 3 * simtime.Millisecond},
		{7 * simtime.Microsecond, 40 * simtime.Millisecond},
		{simtime.Millisecond, 30 * simtime.Millisecond},
		{25 * simtime.Millisecond, 200 * simtime.Millisecond},
	}
	return machines, pats, cases
}

// TestRunStreamsMatchesPerReferenceOracle replays every regime on
// run-length streams over the replay cache and on the per-reference
// oracle over cache.Cache. The cases include a 7 µs quantum (a switch
// every second reference, splitting nearly every run), budgets short
// enough that the intervening program runs past its stream's prefix into
// the tail generator, and a pattern that re-touches a line for thousands
// of references, so its runs reach maxRun. Besides the Symmetry's cache
// they run on a 4-way cache of 32-byte lines, where two memtrace lines
// share a cache line, and on a direct-mapped cache of 8-byte lines.
func TestRunStreamsMatchesPerReferenceOracle(t *testing.T) {
	machines, pats, cases := oracleGrid()
	lazy := pats[len(pats)-2]
	var tails int
	for _, tc := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			opts := Options{Q: tc.q, Budget: tc.budget, Seed: seed}
			for _, m := range pats {
				ms, err := measuredStream(m, tc.budget, seed)
				if err != nil {
					t.Fatal(err)
				}
				for _, iv := range pats {
					is, err := interveningStream(iv, tc.budget, seed)
					if err != nil {
						t.Fatal(err)
					}
					for _, regime := range []Regime{Stationary, Migrating, Multiprog} {
						if regime != Multiprog && iv.Name != m.Name {
							continue // the intervening program plays no part
						}
						for _, mc := range machines {
							got, err := runStreams(mc, ms, is, regime, opts)
							if err != nil {
								t.Fatal(err)
							}
							want, consumed := oracleRun(t, mc, m, iv, regime, opts)
							if got != want {
								t.Fatalf("%+v: %s vs %s, %v, Q %v, budget %v, seed %d:\nreplay %+v\noracle %+v",
									mc.Cache, m.Name, iv.Name, regime, tc.q, tc.budget, seed, got, want)
							}
							if consumed > is.refs {
								tails++
							}
						}
					}
				}
			}
		}
	}
	if tails == 0 {
		t.Error("no case ran the intervening program past its prefix")
	}
	ls, err := measuredStream(lazy, 30*simtime.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, w := range ls.runs {
		if _, k := run(w); k == maxRun {
			full++
		}
	}
	if full == 0 {
		t.Errorf("%s: no run reached %d references", lazy.Name, maxRun)
	}
}

// oracleRuns memoizes oracleRun for one machine and one set of options,
// by measured and intervening pattern name and regime; the intervening
// pattern is ignored but for Multiprog.
type oracleRuns struct {
	t    *testing.T
	mc   machine.Config
	opts Options
	runs map[string]RunResult
}

func (o *oracleRuns) run(m, iv memtrace.Pattern, regime Regime) RunResult {
	if regime != Multiprog {
		iv = memtrace.Pattern{}
	}
	key := m.Name + "/" + iv.Name + "/" + regime.String()
	if r, ok := o.runs[key]; ok {
		return r
	}
	if o.runs == nil {
		o.runs = make(map[string]RunResult)
	}
	r, _ := oracleRun(o.t, o.mc, m, iv, regime, o.opts)
	o.runs[key] = r
	return r
}

// check holds each run of a measured application's penalties against the
// intervening patterns ivs to the oracle.
func (o *oracleRuns) check(what string, pen Penalties, m memtrace.Pattern, ivs []memtrace.Pattern) {
	t := o.t
	t.Helper()
	where := fmt.Sprintf("%s: %+v, %s, Q %v, budget %v, seed %d", what, o.mc.Cache, m.Name, o.opts.Q, o.opts.Budget, o.opts.Seed)
	if want := o.run(m, m, Stationary); pen.Stationary != want {
		t.Fatalf("%s: stationary\nlockstep %+v\noracle   %+v", where, pen.Stationary, want)
	}
	if want := o.run(m, m, Migrating); pen.Migrating != want {
		t.Fatalf("%s: migrating\nlockstep %+v\noracle   %+v", where, pen.Migrating, want)
	}
	if len(pen.Multi) != len(ivs) {
		t.Fatalf("%s: %d multiprogrammed runs, want %d", where, len(pen.Multi), len(ivs))
	}
	for _, iv := range ivs {
		if got, want := pen.Multi[iv.Name], o.run(m, iv, Multiprog); got != want {
			t.Fatalf("%s: multiprog against %s\nlockstep %+v\noracle   %+v", where, iv.Name, got, want)
		}
	}
}

// TestLockstepLanesMatchPerReferenceOracle holds every lane of a lockstep
// replay to the per-reference oracle, on the machines and cases of
// oracleGrid: each run of every MeasureCell cell of a set, of
// MeasurePenalties against no, one and several intervening patterns, and
// of one-lane Runs under each regime.
func TestLockstepLanesMatchPerReferenceOracle(t *testing.T) {
	machines, pats, cases := oracleGrid()
	for _, tc := range cases {
		for seed := uint64(1); seed <= 2; seed++ {
			opts := Options{Q: tc.q, Budget: tc.budget, Seed: seed}
			for _, mc := range machines {
				o := &oracleRuns{t: t, mc: mc, opts: opts}
				set := NewStreamSet(pats, tc.budget, seed)
				for mi, m := range pats {
					pen, err := set.MeasureCell(mc, mi, tc.q)
					if err != nil {
						t.Fatal(err)
					}
					o.check("MeasureCell", pen, m, pats)
				}
				m := pats[len(pats)-2] // LAZY, whose runs reach maxRun
				for _, ivs := range [][]memtrace.Pattern{nil, pats[4:], pats} {
					pen, err := MeasurePenalties(mc, m, ivs, opts)
					if err != nil {
						t.Fatal(err)
					}
					o.check(fmt.Sprintf("MeasurePenalties against %d", len(ivs)), pen, m, ivs)
				}
				for _, regime := range []Regime{Stationary, Migrating, Multiprog} {
					got, err := Run(mc, pats[0], pats[len(pats)-1], regime, opts)
					if err != nil {
						t.Fatal(err)
					}
					if want := o.run(pats[0], pats[len(pats)-1], regime); got != want {
						t.Fatalf("Run %v: %+v, Q %v, budget %v, seed %d:\nlane   %+v\noracle %+v",
							regime, mc.Cache, tc.q, tc.budget, seed, got, want)
					}
				}
			}
		}
	}
}

// FuzzMeasureCell holds every lane of MeasureCell's lockstep replay to the
// per-reference oracle on random grids of one to three patterns: one or
// two components each, sequential or permuted walks, with or without
// phases; 1-, 2- and 4-way caches of 8-, 16- and 32-byte lines, small
// enough that the patterns thrash them; quanta from 5 µs, splitting
// nearly every run, to 1.28 ms; and budgets of one to 16 quanta, whose
// switches and misses often run the intervening program past its prefix.
func FuzzMeasureCell(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(0), uint8(3), []byte{2, 40, 3, 1, 0, 9, 200, 1, 1})
	f.Add(uint64(9), uint8(0), uint8(40), uint8(15), []byte{0, 255, 0, 0, 7, 3, 10, 0, 0, 1, 90, 2})
	f.Add(uint64(5), uint8(2), uint8(255), uint8(8), []byte{19, 7, 1, 1, 5, 4, 128, 3, 0, 12, 30, 0, 2, 0, 60, 1})
	geoms := []cache.Config{
		{SizeBytes: 2 << 10, LineBytes: 8, Ways: 1},
		{SizeBytes: 4 << 10, LineBytes: 16, Ways: 2},
		{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4},
	}
	f.Fuzz(func(t *testing.T, seed uint64, geom, q, budget uint8, shape []byte) {
		mc := machine.Symmetry()
		mc.Cache = geoms[int(geom)%len(geoms)]
		opts := Options{Q: simtime.Duration(1+int(q)) * 5 * simtime.Microsecond, Seed: seed}
		opts.Budget = opts.Q * simtime.Duration(1+budget%16)
		next := func() int { // the next shape byte, 0 past the end
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(b)
		}
		var pats []memtrace.Pattern
		for i, n := 0, 1+next()%3; i < n; i++ {
			p := memtrace.Pattern{Name: fmt.Sprintf("P%d", i), Gap: simtime.Duration(1+next()%20) * simtime.Microsecond}
			nc := 1 + next()%2
			for range nc {
				lines := 1 + 16*next()
				// Weight lines*gap/period at most 1/nc, so the weights sum
				// to 1 or less.
				period := simtime.Duration(lines*nc) * p.Gap * simtime.Duration(1+next()%4)
				p.Components = append(p.Components, memtrace.Component{Lines: lines, Period: period, Permuted: next()&1 == 1})
			}
			if ph := next() % 8; ph > 0 {
				p.PhaseEvery = simtime.Duration(ph) * 100 * simtime.Microsecond
			}
			pats = append(pats, p)
		}
		o := &oracleRuns{t: t, mc: mc, opts: opts}
		set := NewStreamSet(pats, opts.Budget, seed)
		for mi, m := range pats {
			pen, err := set.MeasureCell(mc, mi, opts.Q)
			if err != nil {
				t.Fatal(err)
			}
			o.check("MeasureCell", pen, m, pats)
		}
	})
}

// TestStationaryFromMissesMatchesReplay holds the Stationary runs derived
// from a stream's miss list to a full replay of the stream, on the three
// geometries of TestRunStreamsMatchesPerReferenceOracle, at a Q below one
// 5 µs step (a switch after every reference, the last included), at a Q
// that is no multiple of the step, at the paper's 25 ms, at Q = budget,
// and at a Q equal to the no-switch response time, whose one switch
// falls on the last reference. It also checks that a geometry's miss
// list is computed once and shared, and that it lists exactly the
// references that miss on cache.Cache.
func TestStationaryFromMissesMatchesReplay(t *testing.T) {
	budget := 300 * simtime.Millisecond
	for _, geom := range []cache.Config{
		cache.SymmetryConfig(),
		{SizeBytes: 32 << 10, LineBytes: 32, Ways: 4},
		{SizeBytes: 8 << 10, LineBytes: 8, Ways: 1},
	} {
		mc := machine.Symmetry()
		mc.Cache = geom
		for _, p := range memtrace.Patterns() {
			s, err := measuredStream(p, budget, 3)
			if err != nil {
				t.Fatal(err)
			}
			misses, err := s.missList(mc)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := s.missList(mc); &again[0] != &misses[0] {
				t.Errorf("%s %+v: miss list recomputed", p.Name, geom)
			}
			// The list holds exactly the references that miss on the
			// exact cache, fed the stream's addresses one by one.
			c := cache.MustNew(geom)
			var want []int32
			for i, addr := range decode(s) {
				if !c.Access(ownerMeasured, addr) {
					want = append(want, int32(i))
				}
			}
			if !reflect.DeepEqual(misses, want) {
				t.Fatalf("%s %+v: miss list of %d differs from the %d misses on cache.Cache", p.Name, geom, len(misses), len(want))
			}
			step := mc.Compute(s.gap)
			replayed := func(q simtime.Duration) RunResult {
				t.Helper()
				lanes := []lane{{regime: Stationary}}
				if err := replay(mc, s, q, lanes); err != nil {
					t.Fatal(err)
				}
				return lanes[0].result(s)
			}
			whole := replayed(simtime.Duration(simtime.Never))
			if whole.Switches != 0 || whole.Misses != uint64(len(misses)) {
				t.Fatalf("%s %+v: no-switch replay %+v, %d misses listed", p.Name, geom, whole, len(misses))
			}
			for _, q := range []simtime.Duration{
				simtime.Microsecond, 333 * simtime.Microsecond, 25 * simtime.Millisecond, budget, whole.ResponseTime,
			} {
				want := replayed(q)
				if got := stationary(mc, misses, s.refs, step, q); got != want {
					t.Errorf("%s %+v Q %v:\nfrom misses %+v\nreplay      %+v", p.Name, geom, q, got, want)
				}
				if q <= budget {
					got, err := runStreams(mc, s, nil, Stationary, Options{Q: q, Budget: budget, Seed: 3})
					if err != nil || got != want {
						t.Errorf("%s %+v Q %v: runStreams %+v (%v), replay %+v", p.Name, geom, q, got, err, want)
					}
				}
				switch q {
				case simtime.Microsecond:
					if want.Switches != s.refs {
						t.Errorf("%s: Q %v switched %d times in %d references", p.Name, q, want.Switches, s.refs)
					}
				case whole.ResponseTime:
					if want.Switches != 1 {
						t.Errorf("%s: Q %v switched %d times, want once, on the last reference", p.Name, q, want.Switches)
					}
				}
			}
		}
	}
}

// measureCellSink keeps BenchmarkMeasureCell's result live.
var measureCellSink Penalties

// BenchmarkMeasureCell replays one cell of a fast Table-1 campaign (4 s
// budget, Q = 25 ms, the first pattern measured against all three) over a
// stream set whose streams, and the measured stream's miss list, were
// built before the timer starts. So it times the cell's one lockstep
// replay of its four runs, Migrating and three Multiprog, alone; the
// Stationary run is derived from the miss list.
func BenchmarkMeasureCell(b *testing.B) {
	mc := machine.Symmetry()
	mc.Processors = 1
	set := NewStreamSet(memtrace.Patterns(), 4*simtime.Second, 1)
	q := 25 * simtime.Millisecond
	if _, err := set.MeasureCell(mc, 0, q); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pen, err := set.MeasureCell(mc, 0, q)
		if err != nil {
			b.Fatal(err)
		}
		measureCellSink = pen
	}
}
