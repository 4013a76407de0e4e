package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/simtime"
	"repro/internal/xrand"
)

func chain(n int, work simtime.Duration) *Graph {
	var b GraphBuilder
	prev := b.AddThread(work)
	for i := 1; i < n; i++ {
		cur := b.AddThread(work)
		b.AddDep(prev, cur)
		prev = cur
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestBuildEmptyFails(t *testing.T) {
	var b GraphBuilder
	if _, err := b.Build(); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestAddThreadRejectsNonPositiveWork(t *testing.T) {
	var b GraphBuilder
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero work")
		}
	}()
	b.AddThread(0)
}

func TestBuildRejectsBadEdges(t *testing.T) {
	var b GraphBuilder
	id := b.AddThread(simtime.Second)
	b.AddDep(id, ThreadID(5))
	if _, err := b.Build(); err == nil {
		t.Error("out-of-range edge accepted")
	}

	var b2 GraphBuilder
	id2 := b2.AddThread(simtime.Second)
	b2.AddDep(id2, id2)
	if _, err := b2.Build(); err == nil {
		t.Error("self-edge accepted")
	}
}

func TestBuildRejectsCycle(t *testing.T) {
	var b GraphBuilder
	a := b.AddThread(simtime.Second)
	c := b.AddThread(simtime.Second)
	d := b.AddThread(simtime.Second)
	// a -> c -> d -> c is impossible to express; make c <-> d cyclic with a root a.
	b.AddDep(a, c)
	b.AddDep(c, d)
	b.AddDep(d, c)
	if _, err := b.Build(); err == nil {
		t.Error("cyclic graph accepted")
	}
}

func TestChainProperties(t *testing.T) {
	g := chain(10, simtime.Second)
	if g.NumThreads() != 10 {
		t.Errorf("NumThreads = %d", g.NumThreads())
	}
	if g.MaxWidth() != 1 {
		t.Errorf("MaxWidth = %d, want 1", g.MaxWidth())
	}
	if g.TotalWork() != 10*simtime.Second {
		t.Errorf("TotalWork = %v", g.TotalWork())
	}
	if g.CriticalPath() != 10*simtime.Second {
		t.Errorf("CriticalPath = %v", g.CriticalPath())
	}
	if len(g.Roots()) != 1 {
		t.Errorf("Roots = %v", g.Roots())
	}
}

func TestForkJoinProperties(t *testing.T) {
	var b GraphBuilder
	root := b.AddThread(simtime.Second)
	join := b.AddThread(simtime.Second)
	for i := 0; i < 8; i++ {
		id := b.AddThread(2 * simtime.Second)
		b.AddDep(root, id)
		b.AddDep(id, join)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxWidth() != 8 {
		t.Errorf("MaxWidth = %d, want 8", g.MaxWidth())
	}
	if g.CriticalPath() != 4*simtime.Second {
		t.Errorf("CriticalPath = %v, want 4s", g.CriticalPath())
	}
	if g.TotalWork() != 18*simtime.Second {
		t.Errorf("TotalWork = %v", g.TotalWork())
	}
}

func TestMVAShape(t *testing.T) {
	app := MVASized(5, simtime.Second)
	g := app.Graph
	if g.NumThreads() != 25 {
		t.Errorf("threads = %d, want 25", g.NumThreads())
	}
	// Wavefront: widest anti-diagonal of a 5x5 grid is 5.
	if g.MaxWidth() != 5 {
		t.Errorf("MaxWidth = %d, want 5", g.MaxWidth())
	}
	// Critical path: 2n-1 threads.
	if g.CriticalPath() != 9*simtime.Second {
		t.Errorf("CriticalPath = %v, want 9s", g.CriticalPath())
	}
	if len(g.Roots()) != 1 {
		t.Errorf("MVA should have a single root, got %d", len(g.Roots()))
	}
}

func TestMatrixShape(t *testing.T) {
	app := MatrixSized(4, simtime.Second)
	g := app.Graph
	if g.NumThreads() != 17 { // 16 blocks + sink
		t.Errorf("threads = %d, want 17", g.NumThreads())
	}
	if g.MaxWidth() != 16 {
		t.Errorf("MaxWidth = %d, want 16 (massive constant parallelism)", g.MaxWidth())
	}
	if len(g.Roots()) != 16 {
		t.Errorf("roots = %d, want 16", len(g.Roots()))
	}
}

func TestGravityShape(t *testing.T) {
	app := GravitySized(3, 8, simtime.Second, simtime.Second, 42)
	g := app.Graph
	// Per step: 1 seq + 4 phases * (8 threads + 1 barrier) = 37.
	if g.NumThreads() != 3*37 {
		t.Errorf("threads = %d, want %d", g.NumThreads(), 3*37)
	}
	if g.MaxWidth() != 8 {
		t.Errorf("MaxWidth = %d, want 8", g.MaxWidth())
	}
	// Single root: the first sequential phase.
	if len(g.Roots()) != 1 {
		t.Errorf("roots = %d, want 1", len(g.Roots()))
	}
}

func TestGravityJitterDeterministic(t *testing.T) {
	a := Gravity(7)
	b := Gravity(7)
	c := Gravity(8)
	for i := 0; i < a.Graph.NumThreads(); i++ {
		if a.Graph.Thread(ThreadID(i)).Work != b.Graph.Thread(ThreadID(i)).Work {
			t.Fatal("same seed produced different thread works")
		}
	}
	same := 0
	for i := 0; i < a.Graph.NumThreads(); i++ {
		if a.Graph.Thread(ThreadID(i)).Work == c.Graph.Thread(ThreadID(i)).Work {
			same++
		}
	}
	if same == a.Graph.NumThreads() {
		t.Error("different seeds produced identical thread works")
	}
}

// TestAppByName checks that each paper application is built valid under the
// name that mixes and scenario keys look it up by.
func TestAppByName(t *testing.T) {
	for name, app := range map[string]App{"MVA": MVA(), "MATRIX": Matrix(), "GRAVITY": Gravity(1)} {
		if app.Name != name {
			t.Errorf("app named %q, want %q", app.Name, name)
		}
		if err := app.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
}

func TestAppValidate(t *testing.T) {
	if err := (App{}).Validate(); err == nil {
		t.Error("empty app accepted")
	}
	if err := (App{Name: "x"}).Validate(); err == nil {
		t.Error("graphless app accepted")
	}
}

func TestDefaultAppScalesSane(t *testing.T) {
	// The default applications must be in the paper's regime: max
	// parallelism at least 16 for MATRIX (massive), wavefront peak for MVA
	// matching its grid, and total work tens-to-hundreds of seconds.
	mva, mat, grav := MVA(), Matrix(), Gravity(1)
	if mva.MaxParallelism() != mvaGridSize {
		t.Errorf("MVA MaxParallelism = %d", mva.MaxParallelism())
	}
	if mat.MaxParallelism() < 16 {
		t.Errorf("MATRIX MaxParallelism = %d, want >= 16", mat.MaxParallelism())
	}
	if grav.MaxParallelism() != gravityWidth {
		t.Errorf("GRAVITY MaxParallelism = %d", grav.MaxParallelism())
	}
	for _, app := range []App{mva, mat, grav} {
		tw := app.Graph.TotalWork()
		if tw < 30*simtime.Second || tw > 1000*simtime.Second {
			t.Errorf("%s total work %v outside sane range", app.Name, tw)
		}
	}
}

// Property: for random DAGs, MaxWidth is between 1 and NumThreads, and
// CriticalPath is between max thread work and TotalWork.
func TestQuickGraphBounds(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed, 3)
		var b GraphBuilder
		n := 2 + rng.Intn(40)
		var maxWork simtime.Duration
		for i := 0; i < n; i++ {
			w := simtime.Duration(1+rng.Intn(1000)) * simtime.Millisecond
			if w > maxWork {
				maxWork = w
			}
			b.AddThread(w)
		}
		// Random forward edges only: acyclic by construction.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(6) == 0 {
					b.AddDep(ThreadID(i), ThreadID(j))
				}
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		if g.MaxWidth() < 1 || g.MaxWidth() > n {
			return false
		}
		cp := g.CriticalPath()
		return cp >= maxWork && cp <= g.TotalWork()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
