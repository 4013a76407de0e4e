package measure

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/memtrace"
	"repro/internal/simtime"
	"repro/internal/xrand"
)

// TestReplayCacheMatchesCache drives one random reference sequence through
// the replay cache and through cache.Cache, the exact simulator, and
// requires the same hit or miss on every reference. Two owners reference
// byte offsets (line-aligned or not) into their own address spaces, at
// base 0 and interveningBase, in bursts that often re-touch the owner's
// previous line, over twice the cache's capacity; flushes are
// interleaved. Geometries cover 1-, 2-, 4- and 8-way sets with 8-, 16-
// and 64-byte lines, plus one large cache.
func TestReplayCacheMatchesCache(t *testing.T) {
	var cfgs []cache.Config
	for _, ways := range []int{1, 2, 4, 8} {
		for _, lineBytes := range []int{8, 16, 64} {
			cfgs = append(cfgs, cache.Config{SizeBytes: 64 * ways * lineBytes, LineBytes: lineBytes, Ways: ways})
		}
	}
	cfgs = append(cfgs, cache.Config{SizeBytes: 1 << 20, LineBytes: 16, Ways: 8})
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("%dB_%dway_%dB", cfg.SizeBytes, cfg.Ways, cfg.LineBytes), func(t *testing.T) {
			rc, err := newLRUCache(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := cache.MustNew(cfg)
			rng := xrand.New(uint64(cfg.SizeBytes), uint64(cfg.Ways*cfg.LineBytes))
			span := 2 * cfg.SizeBytes
			var last [2]uint64
			owner := uint32(ownerMeasured)
			var hits, misses, flushes int
			for i, n := 0, 4*cfg.Lines()+20000; i < n; i++ {
				switch r := rng.Intn(1000); {
				case r == 0:
					rc.flush()
					c.Flush()
					flushes++
					continue
				case r < 50:
					owner ^= 1 // ownerMeasured <-> ownerIntervening
				}
				off := last[owner]
				if rng.Intn(3) > 0 {
					off = uint64(rng.Intn(span))
					if rng.Intn(2) == 0 {
						off &^= uint64(cfg.LineBytes - 1)
					}
				}
				last[owner] = off
				base := uint64(0)
				if owner == ownerIntervening {
					base = interveningBase
				}
				got := rc.access(rc.locate(base, off, owner))
				if want := c.Access(int(owner), base+off); got != want {
					t.Fatalf("reference %d (owner %d, offset %#x): replay hit %v, cache.Cache hit %v", i, owner, off, got, want)
				}
				if got {
					hits++
				} else {
					misses++
				}
			}
			if hits == 0 || misses == 0 || flushes == 0 {
				t.Errorf("%d hits, %d misses, %d flushes: a case went unexercised", hits, misses, flushes)
			}
		})
	}
}

// TestReplayKeyBound pins the replay cache's key range. The largest line
// index a key holds maps to the two largest keys, distinct and nonzero,
// for the two owners; a stream prefix never reaches it (a compile-time
// check in lru.go); and an intervening tail generator that wanders past
// it fails the run rather than aliasing lines.
func TestReplayKeyBound(t *testing.T) {
	rc, err := newLRUCache(cache.SymmetryConfig())
	if err != nil {
		t.Fatal(err)
	}
	off := uint64(maxKeyLine) << rc.lineShift
	if _, k0 := rc.locate(0, off, ownerMeasured); k0 != math.MaxUint32-2 {
		t.Errorf("measured key at the bound = %#x, want %#x", k0, uint32(math.MaxUint32-2))
	}
	if _, k1 := rc.locate(interveningBase, off, ownerIntervening); k1 != math.MaxUint32-1 {
		t.Errorf("intervening key at the bound = %#x, want %#x", k1, uint32(math.MaxUint32-1))
	}

	// Every reference opens a region 2^22 lines further on, so the
	// generator passes 2^31 lines after about 512 references; a 2 ns
	// prefix holds two of them.
	const lines = 1 << 22
	sprawl := memtrace.Pattern{
		Name:       "SPRAWL",
		Gap:        1,
		Components: []memtrace.Component{{Lines: lines, Period: lines}},
		PhaseEvery: 1,
	}
	mc := machine.Symmetry()
	opts := Options{Q: 10 * simtime.Millisecond, Budget: 20 * simtime.Millisecond, Seed: 1}
	ms, err := measuredStream(memtrace.MVAPattern(), opts.Budget, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	is, err := interveningStream(sprawl, 2, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	_, err = runStreams(mc, ms, is, Multiprog, opts)
	if err == nil || !strings.Contains(err.Error(), "key bound") {
		t.Fatalf("a tail past the key bound: err = %v, want a key-bound error", err)
	}
}

// TestReplayReturnsLowestLaneError checks that a lockstep replay whose
// lanes fail returns the error replaying its runs one after another would:
// the lowest failed lane's, whether that lane's intervening program ran
// past the key bound or its stream never built, and whichever lane failed
// first in replay order.
func TestReplayReturnsLowestLaneError(t *testing.T) {
	mc := machine.Symmetry()
	opts := Options{Q: 10 * simtime.Millisecond, Budget: 20 * simtime.Millisecond, Seed: 1}
	ms, err := measuredStream(memtrace.MVAPattern(), opts.Budget, opts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	// Two sprawls pass the key bound at different addresses (see
	// TestReplayKeyBound), so their errors differ.
	var sprawls []*Stream
	var alone []error
	for _, lines := range []int{1 << 21, 1 << 22} {
		p := memtrace.Pattern{
			Name:       "SPRAWL",
			Gap:        1,
			Components: []memtrace.Component{{Lines: lines, Period: simtime.Duration(lines)}},
			PhaseEvery: 1,
		}
		is, err := interveningStream(p, 2, opts.Seed)
		if err != nil {
			t.Fatal(err)
		}
		_, err = runStreams(mc, ms, is, Multiprog, opts)
		if err == nil || !strings.Contains(err.Error(), "key bound") {
			t.Fatalf("a %d-line sprawl alone: err = %v, want a key-bound error", lines, err)
		}
		sprawls, alone = append(sprawls, is), append(alone, err)
	}
	if alone[0].Error() == alone[1].Error() {
		t.Fatalf("the sprawls fail alike: %v", alone[0])
	}
	built := fmt.Errorf("stream never built")
	multi := func(s *Stream) lane { return lane{regime: Multiprog, inter: cursor{s: s}} }
	for _, tc := range []struct {
		name  string
		lanes []lane
		want  error
	}{
		{"two sprawls", []lane{{regime: Migrating}, multi(sprawls[0]), multi(sprawls[1])}, alone[0]},
		{"two sprawls, reversed", []lane{{regime: Migrating}, multi(sprawls[1]), multi(sprawls[0])}, alone[1]},
		{"a sprawl before an unbuilt stream", []lane{{regime: Migrating}, multi(sprawls[1]), {regime: Multiprog, err: built}}, alone[1]},
		{"an unbuilt stream before a sprawl", []lane{{regime: Migrating}, {regime: Multiprog, err: built}, multi(sprawls[0])}, built},
	} {
		if err := replay(mc, ms, opts.Q, tc.lanes); err == nil || err.Error() != tc.want.Error() {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReplayCacheRejectsMisalignedBase checks that a line size the
// intervening address base is not a multiple of is refused, since a line
// index within an address space would then not name one cache line.
func TestReplayCacheRejectsMisalignedBase(t *testing.T) {
	if _, err := newLRUCache(cache.Config{SizeBytes: 1 << 42, LineBytes: 1 << 41, Ways: 1}); err == nil {
		t.Error("a line larger than the intervening base accepted")
	}
}
