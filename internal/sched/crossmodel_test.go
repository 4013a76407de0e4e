package sched

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachemodel"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/trace"
	"repro/internal/workload"
)

// runWithModel runs a small MATRIX+GRAVITY mix under the given cache model.
func runWithModel(t *testing.T, kind cachemodel.Kind, polName string) Result {
	t.Helper()
	pol, _ := core.ByName(polName)
	res, err := Run(Config{
		Machine:    mc16(),
		Policy:     pol,
		Apps:       []workload.App{smallMatrix(), smallGravity()},
		Seed:       1,
		CacheModel: kind,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestExactModelEndToEnd is the whole-system ablation: scheduling the same
// workload with the analytic footprint model and with full reference-stream
// replay must give closely matching response times and identical policy
// conclusions. This validates the central modelling substitution of the
// reproduction (DESIGN.md §2).
func TestExactModelEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("exact replay is seconds-long")
	}
	for _, pol := range []string{"Equipartition", "Dyn-Aff"} {
		fp := runWithModel(t, cachemodel.KindFootprint, pol)
		ex := runWithModel(t, cachemodel.KindExact, pol)
		for i := range fp.Jobs {
			f := fp.Jobs[i].ResponseTime.SecondsF()
			x := ex.Jobs[i].ResponseTime.SecondsF()
			ratio := f / x
			if ratio < 0.9 || ratio > 1.12 {
				t.Errorf("%s job %d (%s): footprint RT %.3fs vs exact RT %.3fs (ratio %.3f)",
					pol, i, fp.Jobs[i].App, f, x, ratio)
			}
		}
	}

	// The policy ordering must agree across models: the dynamic policy
	// beats Equipartition under both.
	equiEx := runWithModel(t, cachemodel.KindExact, "Equipartition")
	dynEx := runWithModel(t, cachemodel.KindExact, "Dyn-Aff")
	if dynEx.MeanResponse() >= equiEx.MeanResponse() {
		t.Errorf("under the exact model Dyn-Aff (%.3f) did not beat Equipartition (%.3f)",
			dynEx.MeanResponse(), equiEx.MeanResponse())
	}
}

// TestExactModelMissCountsSane checks that exact-model miss totals are of
// the same order as the footprint model's.
func TestExactModelMissCountsSane(t *testing.T) {
	if testing.Short() {
		t.Skip("exact replay is seconds-long")
	}
	fp := runWithModel(t, cachemodel.KindFootprint, "Dynamic")
	ex := runWithModel(t, cachemodel.KindExact, "Dynamic")
	for i := range fp.Jobs {
		f, x := fp.Jobs[i].MissLines, ex.Jobs[i].MissLines
		if x <= 0 {
			t.Fatalf("job %d: exact model recorded no misses", i)
		}
		ratio := f / x
		if ratio < 0.2 || ratio > 5 {
			t.Errorf("job %d (%s): miss lines footprint %.0f vs exact %.0f (ratio %.2f)",
				i, fp.Jobs[i].App, f, x, ratio)
		}
	}
}

// TestExactFastMatchesNaiveEndToEnd is the whole-system differential for
// the single-replay plan/commit protocol: the same workloads, policies and
// seeds must produce bitwise-identical scheduling Results under the fast
// exact model and under the clone-and-replay-twice oracle. The workloads
// include shared written data, so the coherency-invalidation interleavings
// between Plan and Commit are exercised, and preempting policies exercise
// the truncated-segment rollback path.
func TestExactFastMatchesNaiveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("exact replay is seconds-long")
	}
	shared := smallGravity()
	shared.SharedFrac = 0.15
	for _, pol := range []string{"Equipartition", "Dyn-Aff", "Dynamic", "TimeShare-RR"} {
		for _, seed := range []uint64{1, 7} {
			run := func(kind cachemodel.Kind) Result {
				// Policies carry per-run state (rotation cursors), so each
				// run gets a fresh instance.
				p, _ := core.ByName(pol)
				res, err := Run(Config{
					Machine:    mc16(),
					Policy:     p,
					Apps:       []workload.App{smallMatrix(), shared},
					Seed:       seed,
					CacheModel: kind,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fast := run(cachemodel.KindExact)
			oracle := run(cachemodel.KindExactNaive)
			if !reflect.DeepEqual(fast, oracle) {
				t.Errorf("%s seed %d: fast exact result diverged from naive oracle\nfast:   %+v\noracle: %+v",
					pol, seed, fast, oracle)
			}
		}
	}
}

// TestTracing checks that a traced run records a coherent event stream.
func TestTracing(t *testing.T) {
	pol, _ := core.ByName("Dyn-Aff")
	log := &trace.Log{}
	res, err := Run(Config{
		Machine: mc16(),
		Policy:  pol,
		Apps:    []workload.App{smallMatrix(), smallGravity()},
		Seed:    1,
		Trace:   log,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := log.Counts()
	if counts[trace.JobArrive] != 2 || counts[trace.JobComplete] != 2 {
		t.Errorf("arrivals/completions = %d/%d, want 2/2",
			counts[trace.JobArrive], counts[trace.JobComplete])
	}
	if counts[trace.Dispatch] == 0 || counts[trace.Preempt] == 0 {
		t.Errorf("no dispatches (%d) or preemptions (%d) traced",
			counts[trace.Dispatch], counts[trace.Preempt])
	}
	// Reallocation dispatches in the trace match the job metrics.
	reallocs := 0
	for _, e := range log.Events() {
		if e.Kind == trace.Dispatch && e.Realloc {
			reallocs++
		}
	}
	want := res.Jobs[0].Reallocations + res.Jobs[1].Reallocations
	if reallocs != want {
		t.Errorf("traced reallocations %d != metrics %d", reallocs, want)
	}
	// The Gantt renders without panicking and mentions both jobs.
	g := trace.Gantt(log.Events(), mc16().Processors, 0, res.Makespan, 80, true)
	if !strings.Contains(g, "A") || !strings.Contains(g, "B") {
		t.Errorf("gantt missing job rows:\n%s", g)
	}
}

// TestSharedDataInvalidation checks the coherency model end to end: a job
// with written-shared data loses lines to sibling invalidations, and
// disabling sharing zeroes the metric without other effects.
func TestSharedDataInvalidation(t *testing.T) {
	run := func(sharedFrac float64) Result {
		app := smallGravity()
		app.SharedFrac = sharedFrac
		pol, _ := core.ByName("Dyn-Aff")
		res, err := Run(Config{
			Machine: mc16(),
			Policy:  pol,
			Apps:    []workload.App{app, smallMatrix()},
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	with := run(0.1)
	without := run(0)
	if with.Jobs[0].InvalLines <= 0 {
		t.Error("shared app recorded no invalidations")
	}
	if without.Jobs[0].InvalLines != 0 {
		t.Errorf("unshared app recorded %v invalidations", without.Jobs[0].InvalLines)
	}
	// Invalidations cost misses: the sharing run stalls at least as much.
	if with.Jobs[0].MissLines < without.Jobs[0].MissLines {
		t.Errorf("sharing reduced misses: %v vs %v",
			with.Jobs[0].MissLines, without.Jobs[0].MissLines)
	}
	// SharedFrac out of range is rejected.
	bad := smallGravity()
	bad.SharedFrac = 1.5
	pol, _ := core.ByName("Dynamic")
	if _, err := Run(Config{Machine: mc16(), Policy: pol, Apps: []workload.App{bad}}); err == nil {
		t.Error("SharedFrac 1.5 accepted")
	}
}

// siblingOrder is a cache model that counts the sibling lists the
// scheduler passes InvalidateShared and those not strictly ascending.
type siblingOrder struct {
	cachemodel.Model
	calls, unordered int
}

func (m *siblingOrder) InvalidateShared(fromProc int, siblings []int, lines float64) float64 {
	m.calls++
	for i := 1; i < len(siblings); i++ {
		if siblings[i] <= siblings[i-1] {
			m.unordered++
			break
		}
	}
	return m.Model.InvalidateShared(fromProc, siblings, lines)
}

// TestInvalidateSharedSiblingsAscending pins the contract the footprint
// model's resident-only invalidation relies on: the scheduler lists a
// job's other tasks by ascending task id. It runs a three-application mix
// whose jobs write shared lines and checks every list.
func TestInvalidateSharedSiblingsAscending(t *testing.T) {
	pol, _ := core.ByName("Dyn-Aff")
	cfg := Config{
		Machine: mc16(),
		Policy:  pol,
		Apps:    []workload.App{smallMVA(), smallMatrix(), smallGravity()},
		Seed:    3,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg = cfg.withDefaults()
	fp, err := cachemodel.NewFootprint(cfg.Machine.Processors, cfg.Machine.Cache.Lines())
	if err != nil {
		t.Fatal(err)
	}
	m := &siblingOrder{Model: fp}
	e := &engine{q: &eventq.Queue{}}
	if err := e.reset(cfg, m); err != nil {
		t.Fatal(err)
	}
	if _, err := e.run(); err != nil {
		t.Fatal(err)
	}
	if m.calls == 0 {
		t.Fatal("no coherency invalidation ran")
	}
	if m.unordered > 0 {
		t.Errorf("%d of %d sibling lists not ascending", m.unordered, m.calls)
	}
}
