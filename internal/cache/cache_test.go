package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func small() Config { return Config{SizeBytes: 256, LineBytes: 16, Ways: 2} } // 16 lines, 8 sets

func TestSymmetryGeometry(t *testing.T) {
	cfg := SymmetryConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Lines() != 4096 {
		t.Errorf("Lines = %d, want 4096", cfg.Lines())
	}
	if cfg.Sets() != 2048 {
		t.Errorf("Sets = %d, want 2048", cfg.Sets())
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 16, Ways: 2},
		{SizeBytes: 64, LineBytes: 0, Ways: 2},
		{SizeBytes: 64, LineBytes: 16, Ways: 0},
		{SizeBytes: 64, LineBytes: 12, Ways: 2},  // line not power of two
		{SizeBytes: 100, LineBytes: 16, Ways: 2}, // size not multiple of line
		{SizeBytes: 96, LineBytes: 16, Ways: 4},  // 6 lines not divisible... actually 6 lines % 4 != 0
		{SizeBytes: 192, LineBytes: 16, Ways: 2}, // 12 lines, 6 sets: not power of two
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted bad geometry", cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted bad geometry", cfg)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad config")
		}
	}()
	MustNew(Config{SizeBytes: 1, LineBytes: 3, Ways: 1})
}

func TestMissThenHit(t *testing.T) {
	c := MustNew(small())
	if c.Access(1, 0x100) {
		t.Fatal("first access hit a cold cache")
	}
	if !c.Access(1, 0x100) {
		t.Fatal("second access to same address missed")
	}
	if !c.Access(1, 0x10F) {
		t.Fatal("same-line access missed")
	}
	if c.Access(1, 0x110) {
		t.Fatal("next-line access hit")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 4 accesses 2 misses", st)
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	c := MustNew(small()) // 8 sets, 2 ways; same set every 8 lines = 128 bytes
	a0 := uint64(0x000)
	a1 := uint64(0x080) // same set as a0
	a2 := uint64(0x100) // same set again
	c.Access(1, a0)
	c.Access(1, a1)
	if !c.Access(1, a0) { // touch a0 so a1 becomes LRU
		t.Fatal("a0 should hit")
	}
	c.Access(1, a2) // must evict a1
	if !c.Access(1, a0) {
		t.Fatal("a0 evicted despite being MRU")
	}
	if c.Access(1, a1) {
		t.Fatal("a1 should have been evicted as LRU")
	}
}

func TestResidentAccounting(t *testing.T) {
	c := MustNew(small())
	for i := 0; i < 4; i++ {
		c.Access(1, uint64(i*16))
	}
	for i := 4; i < 6; i++ {
		c.Access(2, uint64(i*16))
	}
	if got := c.Resident(1); got != 4 {
		t.Errorf("Resident(1) = %d, want 4", got)
	}
	if got := c.Resident(2); got != 2 {
		t.Errorf("Resident(2) = %d, want 2", got)
	}
	if got := c.Occupied(); got != 6 {
		t.Errorf("Occupied = %d, want 6", got)
	}
	if got := len(c.Owners()); got != 2 {
		t.Errorf("Owners = %v", c.Owners())
	}
}

func TestSharedLineChangesOwner(t *testing.T) {
	c := MustNew(small())
	c.Access(1, 0x40)
	if !c.Access(2, 0x40) {
		t.Fatal("second owner's access to resident line should hit")
	}
	if c.Resident(1) != 0 || c.Resident(2) != 1 {
		t.Fatalf("ownership transfer failed: r1=%d r2=%d", c.Resident(1), c.Resident(2))
	}
}

func TestFlush(t *testing.T) {
	c := MustNew(small())
	for i := 0; i < 10; i++ {
		c.Access(3, uint64(i*16))
	}
	c.Flush()
	if c.Occupied() != 0 || c.Resident(3) != 0 {
		t.Fatal("flush left residents")
	}
	if c.Access(3, 0) {
		t.Fatal("post-flush access hit")
	}
	// Stats survive flush.
	if c.Stats().Accesses != 11 {
		t.Errorf("accesses = %d, want 11", c.Stats().Accesses)
	}
}

func TestInvalidateOwner(t *testing.T) {
	c := MustNew(small())
	for i := 0; i < 4; i++ {
		c.Access(1, uint64(i*16))
	}
	for i := 4; i < 8; i++ {
		c.Access(2, uint64(i*16))
	}
	if n := c.InvalidateOwner(1); n != 4 {
		t.Fatalf("invalidated %d lines, want 4", n)
	}
	if c.Resident(1) != 0 || c.Resident(2) != 4 {
		t.Fatal("invalidate touched the wrong owner")
	}
	if n := c.InvalidateOwner(99); n != 0 {
		t.Fatalf("invalidating absent owner returned %d", n)
	}
}

func TestNegativeOwnerPanics(t *testing.T) {
	c := MustNew(small())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative owner")
		}
	}()
	c.Access(-1, 0)
}

func TestCapacityBound(t *testing.T) {
	c := MustNew(small())
	for i := 0; i < 1000; i++ {
		c.Access(1, uint64(i*16))
	}
	if got := c.Occupied(); got != 16 {
		t.Errorf("Occupied = %d, want capacity 16", got)
	}
	if got := c.Resident(1); got != 16 {
		t.Errorf("Resident = %d, want 16", got)
	}
}

func TestWorkingSetSmallerThanCacheAllHitsAfterWarmup(t *testing.T) {
	c := MustNew(SymmetryConfig())
	// 1000 distinct lines, well under 4096 capacity.
	for i := 0; i < 1000; i++ {
		c.Access(1, uint64(i*16))
	}
	st0 := c.Stats()
	for pass := 0; pass < 5; pass++ {
		for i := 0; i < 1000; i++ {
			if !c.Access(1, uint64(i*16)) {
				t.Fatalf("pass %d line %d missed after warmup", pass, i)
			}
		}
	}
	st1 := c.Stats()
	if st1.Misses != st0.Misses {
		t.Fatalf("misses grew from %d to %d on warm working set", st0.Misses, st1.Misses)
	}
}

// Property: occupancy never exceeds capacity, residency sums to occupancy,
// and per-owner residency is never negative — under arbitrary access,
// flush, and invalidate sequences.
func TestQuickInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed, 0)
		c := MustNew(small())
		for step := 0; step < 2000; step++ {
			switch rng.Intn(20) {
			case 0:
				c.Flush()
			case 1:
				c.InvalidateOwner(rng.Intn(3))
			default:
				c.Access(rng.Intn(3), uint64(rng.Intn(64)*16))
			}
			occ := c.Occupied()
			if occ < 0 || occ > c.Config().Lines() {
				return false
			}
			sum := 0
			for _, o := range c.Owners() {
				r := c.Resident(o)
				if r < 0 {
					return false
				}
				sum += r
			}
			if sum != occ {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: an access always hits immediately after an access to the same
// line by any owner, unless a flush/invalidate intervened.
func TestQuickRepeatHit(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed, 1)
		c := MustNew(small())
		for step := 0; step < 500; step++ {
			addr := uint64(rng.Intn(64) * 16)
			owner := rng.Intn(3)
			c.Access(owner, addr)
			if !c.Access(owner, addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessHot(b *testing.B) {
	c := MustNew(SymmetryConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(1, uint64(i%1024)*16)
	}
}

func BenchmarkAccessThrash(b *testing.B) {
	c := MustNew(SymmetryConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(1, uint64(i%100000)*16)
	}
}

func TestClone(t *testing.T) {
	c := MustNew(small())
	for i := 0; i < 10; i++ {
		c.Access(1, uint64(i*16))
	}
	cl := c.Clone()
	// Same contents.
	if cl.Resident(1) != c.Resident(1) || cl.Occupied() != c.Occupied() {
		t.Fatal("clone contents differ")
	}
	if !cl.Access(1, 0) {
		t.Fatal("clone missed a line the original holds")
	}
	// Independence: touching the clone leaves the original unchanged.
	for i := 100; i < 120; i++ {
		cl.Access(2, uint64(i*16))
	}
	if c.Resident(2) != 0 {
		t.Fatal("mutating the clone leaked into the original")
	}
	if c.Stats().Accesses != 10 {
		t.Fatalf("original stats changed: %+v", c.Stats())
	}
}

func TestInvalidateN(t *testing.T) {
	c := MustNew(small())
	for i := 0; i < 8; i++ {
		c.Access(1, uint64(i*16))
	}
	if got := c.InvalidateN(1, 3); got != 3 {
		t.Errorf("InvalidateN = %d, want 3", got)
	}
	if c.Resident(1) != 5 {
		t.Errorf("Resident = %d, want 5", c.Resident(1))
	}
	// Removing more than resident clamps.
	if got := c.InvalidateN(1, 100); got != 5 {
		t.Errorf("clamped InvalidateN = %d, want 5", got)
	}
	if c.Resident(1) != 0 {
		t.Errorf("Resident = %d, want 0", c.Resident(1))
	}
	if got := c.InvalidateN(1, 1); got != 0 {
		t.Errorf("empty InvalidateN = %d", got)
	}
	if got := c.InvalidateN(1, 0); got != 0 {
		t.Errorf("zero InvalidateN = %d", got)
	}
}
