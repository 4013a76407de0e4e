package memtrace

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/simtime"
)

func TestDefaultPatternsValid(t *testing.T) {
	for _, p := range Patterns() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestValidateRejectsBadPatterns(t *testing.T) {
	bad := []Pattern{
		{Name: "noGap", Components: []Component{{Lines: 1, Period: 1}}},
		{Name: "noComp", Gap: 1},
		{Name: "zeroLines", Gap: 1, Components: []Component{{Lines: 0, Period: 1}}},
		{Name: "zeroPeriod", Gap: 1, Components: []Component{{Lines: 1, Period: 0}}},
		{Name: "overweight", Gap: simtime.Millisecond,
			Components: []Component{{Lines: 100, Period: simtime.Millisecond}}},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: bad pattern accepted", p.Name)
		}
	}
}

func TestNewGeneratorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid pattern")
		}
	}()
	NewGenerator(Pattern{Name: "bad"}, 0, 1)
}

func TestLiveFootprint(t *testing.T) {
	p := MatrixPattern()
	if got := p.LiveFootprint(); got != 64+1150+1150 {
		t.Errorf("LiveFootprint = %d", got)
	}
}

func TestTouchRateSaturates(t *testing.T) {
	p := MVAPattern()
	small := p.TouchRate(1 * simtime.Millisecond)
	big := p.TouchRate(10 * simtime.Second)
	if small >= big {
		t.Errorf("TouchRate not increasing: %v vs %v", small, big)
	}
	if big != float64(p.LiveFootprint()) {
		t.Errorf("TouchRate asymptote = %v, want %d", big, p.LiveFootprint())
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGenerator(GravityPattern(), 0, 42)
	b := NewGenerator(GravityPattern(), 0, 42)
	for i := 0; i < 10000; i++ {
		aa, at := a.Next()
		ba, bt := b.Next()
		if aa != ba || at != bt {
			t.Fatalf("generators with identical seeds diverged at ref %d", i)
		}
	}
}

func TestSeedsProduceDifferentWalks(t *testing.T) {
	a := NewGenerator(GravityPattern(), 0, 1)
	b := NewGenerator(GravityPattern(), 0, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		aa, _ := a.Next()
		ba, _ := b.Next()
		if aa == ba {
			same++
		}
	}
	if same > 900 {
		t.Errorf("different seeds produced %d/1000 identical refs", same)
	}
}

func TestAddressesStayInRegion(t *testing.T) {
	for _, p := range Patterns() {
		base := uint64(1 << 30)
		g := NewGenerator(p, base, 7)
		// One phase relocation spans LiveFootprint+1024 lines.
		span := uint64(p.LiveFootprint()+1024) * LineBytes
		maxPhases := uint64(1)
		if p.PhaseEvery > 0 {
			maxPhases += uint64(simtime.Seconds(2) / p.PhaseEvery)
		}
		for g.Elapsed() < simtime.Seconds(2) {
			addr, _ := g.Next()
			if addr < base || addr >= base+(maxPhases+1)*span {
				t.Fatalf("%s: address %#x outside expected region", p.Name, addr)
			}
		}
	}
}

func TestThinkTimeAccumulates(t *testing.T) {
	g := NewGenerator(MatrixPattern(), 0, 1)
	var sum simtime.Duration
	for i := 0; i < 1000; i++ {
		_, think := g.Next()
		if think <= 0 {
			t.Fatal("non-positive think time")
		}
		sum += think
	}
	if g.Elapsed() != sum {
		t.Errorf("Elapsed = %v, sum of thinks = %v", g.Elapsed(), sum)
	}
	if g.Emitted() != 1000 {
		t.Errorf("Emitted = %d", g.Emitted())
	}
}

// The pivotal calibration property: running a pattern against the exact
// cache simulator, the number of distinct lines touched in an interval d
// should approximate TouchRate(d).
func TestCoverageMatchesTouchRate(t *testing.T) {
	for _, p := range Patterns() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g := NewGenerator(p, 0, 3)
			for _, d := range []simtime.Duration{25 * simtime.Millisecond, 100 * simtime.Millisecond} {
				distinct := make(map[uint64]bool)
				start := g.Elapsed()
				for g.Elapsed()-start < d {
					addr, _ := g.Next()
					distinct[addr/LineBytes] = true
				}
				want := p.TouchRate(d) + 1 // +1 for the hot "last line"
				got := float64(len(distinct))
				if got < want*0.85 || got > want*1.15 {
					t.Errorf("%s d=%v: distinct lines = %v, predicted %v", p.Name, d, got, want)
				}
			}
		})
	}
}

// After warming, the steady-state miss ratio on a Symmetry-sized cache must
// be small: these programs are cache-friendly by construction (MATRIX is
// explicitly blocked to fit the cache).
func TestSteadyStateMissRatioIsLow(t *testing.T) {
	for _, p := range Patterns() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c := cache.MustNew(cache.SymmetryConfig())
			g := NewGenerator(p, 0, 9)
			// Warm for 1 simulated second.
			for g.Elapsed() < simtime.Second {
				addr, _ := g.Next()
				c.Access(1, addr)
			}
			before := c.Stats()
			for g.Elapsed() < 2*simtime.Second {
				addr, _ := g.Next()
				c.Access(1, addr)
			}
			after := c.Stats()
			misses := after.Misses - before.Misses
			accesses := after.Accesses - before.Accesses
			ratio := float64(misses) / float64(accesses)
			if ratio > 0.10 {
				t.Errorf("%s steady-state miss ratio %.3f too high", p.Name, ratio)
			}
		})
	}
}

// Property: generators never emit a zero think time and never regress
// elapsed time, for arbitrary seeds.
func TestQuickMonotoneElapsed(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewGenerator(MVAPattern(), 0, seed)
		prev := simtime.Duration(0)
		for i := 0; i < 500; i++ {
			g.Next()
			if g.Elapsed() <= prev {
				return false
			}
			prev = g.Elapsed()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g := NewGenerator(GravityPattern(), 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func TestClone(t *testing.T) {
	g := NewGenerator(GravityPattern(), 0, 5)
	for i := 0; i < 5000; i++ {
		g.Next()
	}
	c := g.Clone()
	// Identical continuations.
	for i := 0; i < 5000; i++ {
		a1, t1 := g.Next()
		a2, t2 := c.Next()
		if a1 != a2 || t1 != t2 {
			t.Fatalf("clone diverged at ref %d", i)
		}
	}
	// Independence: advancing the clone leaves the original untouched.
	base := g.Clone()
	probe := g.Clone()
	for i := 0; i < 1000; i++ {
		probe.Next()
	}
	a1, _ := base.Next()
	a2, _ := g.Next()
	if a1 != a2 {
		t.Fatal("advancing a clone perturbed its sibling")
	}
}

func TestCloneAcrossPhaseChange(t *testing.T) {
	// GRAVITY relocates regions every PhaseEvery; clones taken just before
	// a phase boundary must still agree after crossing it.
	p := GravityPattern()
	g := NewGenerator(p, 0, 6)
	for g.Elapsed() < p.PhaseEvery-simtime.Millisecond {
		g.Next()
	}
	c := g.Clone()
	for i := 0; i < 100000; i++ {
		a1, _ := g.Next()
		a2, _ := c.Next()
		if a1 != a2 {
			t.Fatalf("clone diverged at ref %d after phase change", i)
		}
	}
}
