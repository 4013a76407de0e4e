package measure

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/memtrace"
)

// lruCache is the cache the Section-4 runs replay on: a set-associative
// LRU cache that records only which lines each set holds, in recency
// order. Each line is a 4-byte key, so the Symmetry cache is a 16 KiB
// array. Replay reads nothing else: the measured program's misses are
// counted by the caller, and no owner residency, statistics or undo state
// enters a Table-1 result.
//
// A key is 2 × (the line's index within its program's address space) +
// owner + 1, so the two programs' lines never share a key and 0 marks an
// empty way. A set's ways hold keys most recent first, empty ways last.
// Under LRU the lines a set holds are the last `ways` distinct lines
// mapped to it since the last flush, wherever a cache keeps them, so every
// hit and miss equals cache.Cache's, which places lines by way order and
// a touch clock instead (TestReplayCacheMatchesCache).
type lruCache struct {
	keys      []uint32 // sets × ways keys, set-major
	ways      int
	lineShift uint
	setMask   uint64
}

// maxKeyLine is the largest line index a key holds: 2 × maxKeyLine + 2
// still fits in a uint32.
const maxKeyLine = (math.MaxUint32 - 2) / 2

// A stream prefix's line index is at most maxLine memtrace lines, which
// is maxLine × memtrace.LineBytes bytes into its address space; at any
// line size its cache-line index is at most that byte offset. The
// conversion below fails to compile if such an offset could exceed
// maxKeyLine, so replaying a prefix never checks its keys. Only the
// intervening tail generator's references, which no prefix bounds, are
// checked (see runIntervening).
const _ = uint32(maxKeyLine - maxLine*memtrace.LineBytes)

// newLRUCache returns an empty replay cache of the given geometry. The
// intervening program's address base must be a multiple of the line size,
// so that a line's index within its address space names one cache line.
func newLRUCache(cfg cache.Config) (*lruCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if interveningBase%uint64(cfg.LineBytes) != 0 {
		return nil, fmt.Errorf("measure: %d-byte lines do not align the intervening address base %#x",
			cfg.LineBytes, uint64(interveningBase))
	}
	return &lruCache{
		keys:      make([]uint32, cfg.Lines()),
		ways:      cfg.Ways,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(cfg.Sets() - 1),
	}, nil
}

// locate returns the first way's index and the key of the line holding
// byte off of owner's address space, which starts at base. The line index
// off >> lineShift must be at most maxKeyLine.
func (c *lruCache) locate(base, off uint64, owner uint32) (set int, key uint32) {
	set = int((base+off)>>c.lineShift&c.setMask) * c.ways
	return set, uint32(off>>c.lineShift)<<1 + owner + 1
}

// access references the line key in the set starting at way set, making
// it the set's most recent line, and reports whether it hit. A miss
// evicts the set's least recently used line, or fills an empty way.
// access sits at the compiler's inlining budget, so that in the replay
// loops a hit at way 0 costs one compare and a 2-way set one swap.
func (c *lruCache) access(set int, key uint32) bool {
	w := c.keys[set:]
	if w[0] == key {
		return true
	}
	if c.ways == 2 {
		hit := w[1] == key
		w[1], w[0] = w[0], key
		return hit
	}
	return moveToFront(w[:c.ways], key)
}

// moveToFront puts key first in w, shifting the keys before its old place
// (or all but the last, which drops out, when w lacks it) back one way.
func moveToFront(w []uint32, key uint32) bool {
	prev := key
	for i, cur := range w {
		w[i] = prev
		if cur == key {
			return true
		}
		prev = cur
	}
	return false
}

// flush empties the cache.
func (c *lruCache) flush() { clear(c.keys) }
