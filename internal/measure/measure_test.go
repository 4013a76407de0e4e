package measure

import (
	"context"
	"reflect"
	"testing"

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
	tbl, err := BuildTable1(mc, memtrace.Patterns(), qs, 4*simtime.Second, 1)
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
	tbl, err := BuildTable1(mc, pats, qs, budget, 7)
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
// worker and at several.
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
}

// TestStreamReplaysGenerator checks that a stream's 32-bit line indices
// decode to exactly the byte addresses its generator emits, at both
// address bases the protocol uses.
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
			if len(s.lines) != len(want) {
				t.Fatalf("%s: %d references, want %d", p.Name, len(s.lines), len(want))
			}
			for i, line := range s.lines {
				if got := s.base + uint64(line)*memtrace.LineBytes; got != want[i] {
					t.Fatalf("%s base %#x: reference %d = %#x, want %#x", p.Name, base, i, got, want[i])
				}
			}
		}
	}
}

// TestStreamLineIndexOverflow checks that a stream whose line indices
// outgrow 32 bits is refused with an error, not wrapped or panicked on. A
// huge region relocated every reference crosses 2^32 lines within about
// a thousand references.
func TestStreamLineIndexOverflow(t *testing.T) {
	const lines = 1 << 22
	pat := memtrace.Pattern{
		Name:       "SPRAWL",
		Gap:        1,
		Components: []memtrace.Component{{Lines: lines, Period: lines}},
		PhaseEvery: 1,
	}
	if _, err := newStream(pat, 0, 1, 4096); err == nil {
		t.Fatal("a stream past 2^32 lines was built")
	}
	if _, err := NewStreamSet([]memtrace.Pattern{pat}, 4096, 1).MeasureCell(machine.Symmetry(), 0, 1024); err == nil {
		t.Fatal("a cell over an overflowing stream succeeded")
	}
}
