// Package cache implements an exact set-associative cache simulator with
// LRU replacement and per-owner residency accounting.
//
// The simulated cache corresponds to one per-processor cache of the Sequent
// Symmetry Model B studied in the paper: 64 Kbytes, 2-way set associative,
// 16-byte lines (4096 lines in 2048 sets), copy-back with an
// invalidation-based coherency protocol. All of those parameters are
// configurable.
//
// Because the reproduction's experiments are about *which task's* data
// occupies the cache, every access is tagged with an owner (a task
// identifier), and the cache tracks how many lines each owner currently has
// resident. That per-owner footprint is exactly the quantity the paper's
// affinity arguments are about, and is what the analytic footprint model in
// internal/footprint is validated against.
//
// # Data layout
//
// The simulator sits on the hot path of every exact-model experiment, so
// state lives in flat preallocated arrays rather than per-set slices and
// maps:
//
//   - Each line is one 32-byte record (tag, packed epoch+owner meta, LRU
//     word, journal stamp) in a single set-major array, so a 2-way set is
//     exactly one 64-byte hardware cache line and an access touches one
//     line of host memory. meta packs a line's validity epoch (upper 48
//     bits) with its owner slot (lower 16 bits): the hit test is two word
//     compares and Flush is an O(1) epoch bump — every line stamped with an
//     older epoch is invalid.
//   - Owner identifiers (arbitrary non-negative ints) are interned into
//     dense slots on first use; per-owner residency is a flat counter array
//     indexed by slot, replacing the map the original implementation
//     maintained (and paid a hash op per miss for).
//
// The retained map-based reference implementation is Naive (naive.go); the
// differential tests and fuzz target in this package hold the two bitwise
// equivalent.
//
// # Undo journal
//
// BeginJournal/CommitJournal/Rollback let a caller replay a speculative
// reference stream directly on the live cache and then either keep it (the
// common case, free) or restore the exact prior state. The journal records
// each touched line's prior tag/meta/LRU word once (first touch), plus the
// residency counters and global counters, so rollback cost is bounded by
// lines touched, never by references replayed. This is what lets the exact
// cache model plan a segment's misses with a single replay instead of the
// clone-and-replay-twice protocol (see internal/cachemodel).
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes cache geometry.
type Config struct {
	// SizeBytes is the total capacity in bytes.
	SizeBytes int
	// LineBytes is the line (block) size in bytes. Must be a power of two.
	LineBytes int
	// Ways is the associativity. Must be >= 1.
	Ways int
}

// SymmetryConfig returns the cache geometry of the Sequent Symmetry Model B:
// 64 KB, 2-way set associative, 16-byte lines.
func SymmetryConfig() Config {
	return Config{SizeBytes: 64 * 1024, LineBytes: 16, Ways: 2}
}

// Lines returns the total number of lines the cache holds.
func (c Config) Lines() int { return c.SizeBytes / c.LineBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Ways }

// Validate checks the geometry for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cache: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	lines := c.Lines()
	if lines%c.Ways != 0 {
		return fmt.Errorf("cache: %d lines not divisible by %d ways", lines, c.Ways)
	}
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

// NoOwner marks an invalid (empty) way.
const NoOwner = -1

// slotBits is the width of the owner-slot field in a meta word; the rest
// holds the validity epoch. 16 bits bound the distinct owners one cache can
// ever see at 65536 — far beyond any simulated workload (owners are kernel
// tasks; runs have at most processors × jobs of them).
const (
	slotBits = 16
	slotMask = 1<<slotBits - 1
	maxSlots = 1 << slotBits
)

// lineRec is one cache line's state: 32 bytes, so a 2-way set occupies
// exactly one 64-byte hardware cache line (the backing array of a
// Symmetry-sized cache is page-aligned, keeping sets line-aligned).
type lineRec struct {
	tag   uint64 // line address (byte address >> lineShift)
	meta  uint64 // epoch<<slotBits | owner slot; valid iff epoch is current
	used  uint64 // global access counter value at last touch, for LRU
	jmark uint64 // journal generation stamp: journaled iff == jgen
}

// jentry records one journaled line's state prior to its first modification
// inside the current journal.
type jentry struct {
	idx  int32
	tag  uint64
	meta uint64
	used uint64
}

// jcounters snapshots the scalar counters at BeginJournal.
type jcounters struct {
	accesses uint64
	misses   uint64
	evicted  uint64
	occupied int
}

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg       Config
	lineShift uint
	setMask   uint64
	nways     int

	lines []lineRec // sets*ways records, set-major

	epoch uint64 // current validity epoch, starts at 1 so zeroed meta is invalid

	// Owner interning: external owner id -> dense slot, with a one-entry
	// cache in front because accesses arrive in long same-owner runs.
	slotOf    map[int]uint64
	ownerOf   []int
	resCount  []int32 // lines resident per slot
	occupied  int
	lastOwner int
	lastSlot  uint64

	accesses uint64
	misses   uint64
	evicted  uint64

	// Undo journal (see package comment).
	journaling bool
	jgen       uint64
	jlog       []jentry
	jres       []int32 // resCount snapshot at BeginJournal
	jctr       jcounters
}

// New constructs a cache with the given geometry. It returns an error when
// the geometry is invalid.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(cfg.Sets() - 1),
		nways:     cfg.Ways,
		lines:     make([]lineRec, cfg.Lines()),
		epoch:     1,
		slotOf:    make(map[int]uint64),
		lastOwner: NoOwner,
	}
	return c, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// slot interns owner, returning its dense slot index. The one-entry cache
// in front of the map makes the common long-same-owner runs map-free; the
// split keeps slot itself within the compiler's inlining budget.
func (c *Cache) slot(owner int) uint64 {
	if owner == c.lastOwner {
		return c.lastSlot
	}
	return c.slotSlow(owner)
}

//go:noinline
func (c *Cache) slotSlow(owner int) uint64 {
	s, ok := c.slotOf[owner]
	if !ok {
		if len(c.ownerOf) >= maxSlots {
			panic("cache: more than 65536 distinct owners")
		}
		s = uint64(len(c.ownerOf))
		c.slotOf[owner] = s
		c.ownerOf = append(c.ownerOf, owner)
		c.resCount = append(c.resCount, 0)
	}
	c.lastOwner, c.lastSlot = owner, s
	return s
}

// journal records line i's current state, once per journal generation.
func (c *Cache) journal(i int) {
	l := &c.lines[i]
	if l.jmark == c.jgen {
		return
	}
	l.jmark = c.jgen
	c.jlog = append(c.jlog, jentry{idx: int32(i), tag: l.tag, meta: l.meta, used: l.used})
}

// Access simulates a reference by owner to the byte address addr and reports
// whether it hit. On a miss the line is installed for owner, evicting the
// set's least recently used line if necessary.
func (c *Cache) Access(owner int, addr uint64) bool {
	if owner < 0 {
		panic("cache: negative owner")
	}
	// accesses doubles as the LRU clock: both advance exactly once per
	// Access and nothing else touches them, so they are always equal.
	c.accesses++
	line := addr >> c.lineShift
	base := int(line&c.setMask) * c.nways
	ebase := c.epoch << slotBits

	// Unrolled fast path for the ubiquitous 2-way geometry (the Symmetry
	// machine); semantics identical to the generic loops below. The hit
	// logic is duplicated from hitAt because the call is not inlinable and
	// hits dominate.
	if c.nways == 2 {
		l0, l1 := &c.lines[base], &c.lines[base+1]
		var l *lineRec
		if l0.tag == line && l0.meta&^uint64(slotMask) == ebase {
			l = l0
		} else if l1.tag == line && l1.meta&^uint64(slotMask) == ebase {
			l = l1
			base++
		}
		if l != nil {
			if c.journaling {
				c.journal(base)
			}
			l.used = c.accesses
			slot := c.slot(owner)
			if prev := l.meta & slotMask; prev != slot {
				c.resCount[prev]--
				c.resCount[slot]++
				l.meta = ebase | slot
			}
			return true
		}
		victim, valid := base, true
		if l0.meta>>slotBits != c.epoch {
			valid = false
		} else if l1.meta>>slotBits != c.epoch {
			victim, valid = base+1, false
		} else if l1.used < l0.used {
			victim = base + 1
		}
		return c.installAt(victim, valid, owner, line, ebase)
	}

	// Hit?
	for i := base; i < base+c.nways; i++ {
		l := &c.lines[i]
		if l.tag == line && l.meta&^uint64(slotMask) == ebase {
			return c.hitAt(i, owner, ebase)
		}
	}

	// Miss: find an invalid way, else evict LRU.
	victim := base
	valid := true
	for i := base; i < base+c.nways; i++ {
		if c.lines[i].meta>>slotBits != c.epoch {
			victim = i
			valid = false
			break
		}
		if c.lines[i].used < c.lines[victim].used {
			victim = i
		}
	}
	return c.installAt(victim, valid, owner, line, ebase)
}

// hitAt applies a hit on line i, returning true.
func (c *Cache) hitAt(i, owner int, ebase uint64) bool {
	if c.journaling {
		c.journal(i)
	}
	l := &c.lines[i]
	l.used = c.accesses
	slot := c.slot(owner)
	if prev := l.meta & slotMask; prev != slot {
		// Shared line touched by a new owner: account it to the most
		// recent toucher, mirroring who benefits from it.
		c.resCount[prev]--
		c.resCount[slot]++
		l.meta = ebase | slot
	}
	return true
}

// installAt applies a miss install into line victim (evicting it when
// valid), returning false.
func (c *Cache) installAt(victim int, valid bool, owner int, line, ebase uint64) bool {
	c.misses++
	if c.journaling {
		c.journal(victim)
	}
	l := &c.lines[victim]
	if valid {
		c.evicted++
		c.resCount[l.meta&slotMask]--
	} else {
		c.occupied++
	}
	slot := c.slot(owner)
	l.tag = line
	l.meta = ebase | slot
	l.used = c.accesses
	c.resCount[slot]++
	return false
}

// Flush invalidates the entire cache, as the paper's migration experiment
// does by streaming through memory before resuming the measured program.
// It is an O(distinct owners) epoch bump, not an O(lines) clear.
func (c *Cache) Flush() {
	if c.journaling {
		panic("cache: Flush during an open journal")
	}
	c.epoch++
	for i := range c.resCount {
		c.resCount[i] = 0
	}
	c.occupied = 0
}

// InvalidateOwner removes every line belonging to owner, modelling coherency
// invalidations when the owner's task writes the same data from another
// processor. It returns the number of lines invalidated.
func (c *Cache) InvalidateOwner(owner int) int {
	if c.journaling {
		panic("cache: InvalidateOwner during an open journal")
	}
	s, ok := c.slotOf[owner]
	if !ok || c.resCount[s] == 0 {
		return 0
	}
	want := c.epoch<<slotBits | s
	n := 0
	for i := range c.lines {
		if c.lines[i].meta == want {
			c.lines[i].meta = 0 // epoch 0 is never current
			n++
			if int32(n) == c.resCount[s] {
				break
			}
		}
	}
	c.resCount[s] = 0
	c.occupied -= n
	return n
}

// InvalidateN removes up to n of owner's lines (scanning in way order, a
// deterministic stand-in for "whichever shared lines were written"). It
// returns the number of lines invalidated.
func (c *Cache) InvalidateN(owner, n int) int {
	if c.journaling {
		panic("cache: InvalidateN during an open journal")
	}
	if n <= 0 {
		return 0
	}
	s, ok := c.slotOf[owner]
	if !ok || c.resCount[s] == 0 {
		return 0
	}
	want := c.epoch<<slotBits | s
	removed := 0
	for i := range c.lines {
		if c.lines[i].meta == want {
			c.lines[i].meta = 0
			removed++
			if removed >= n || int32(removed) == c.resCount[s] {
				break
			}
		}
	}
	c.resCount[s] -= int32(removed)
	c.occupied -= removed
	return removed
}

// Resident returns the number of lines owner currently has in the cache.
func (c *Cache) Resident(owner int) int {
	if s, ok := c.slotOf[owner]; ok {
		return int(c.resCount[s])
	}
	return 0
}

// ResidentAtJournalStart returns owner's residency as of the BeginJournal
// call when a journal is open, and the current residency otherwise. The
// exact cache model uses it to prove a coherency invalidation is a no-op in
// both the journaled and the rolled-back state, letting a pending plan
// survive.
func (c *Cache) ResidentAtJournalStart(owner int) int {
	if !c.journaling {
		return c.Resident(owner)
	}
	if s, ok := c.slotOf[owner]; ok && s < uint64(len(c.jres)) {
		return int(c.jres[s])
	}
	return 0
}

// Occupied returns the total number of valid lines.
func (c *Cache) Occupied() int { return c.occupied }

// Owners returns the set of owners with at least one resident line.
func (c *Cache) Owners() []int {
	var out []int
	for s, n := range c.resCount {
		if n > 0 {
			out = append(out, c.ownerOf[s])
		}
	}
	return out
}

// BeginJournal starts recording undo state: every line modified by
// subsequent Accesses has its prior state captured once. The journal stays
// open until CommitJournal or Rollback; Flush and the invalidate operations
// panic while it is open (the callers that journal never interleave them —
// see internal/cachemodel).
func (c *Cache) BeginJournal() {
	if c.journaling {
		panic("cache: nested BeginJournal")
	}
	if c.jlog == nil {
		// Allocated on first use, since a cache that never journals (one
		// only accessed and flushed, as the tests' oracles use it) needs
		// none. Sized so steady-state journaling never regrows the undo
		// log (worst case touches every line once).
		c.jlog = make([]jentry, 0, len(c.lines))
	}
	c.journaling = true
	c.jgen++
	c.jlog = c.jlog[:0]
	c.jres = append(c.jres[:0], c.resCount...)
	c.jctr = jcounters{
		accesses: c.accesses,
		misses:   c.misses,
		evicted:  c.evicted,
		occupied: c.occupied,
	}
}

// Journaling reports whether a journal is open.
func (c *Cache) Journaling() bool { return c.journaling }

// CommitJournal closes the journal keeping every effect recorded since
// BeginJournal — the speculative replay becomes the real state, at no cost
// beyond dropping the undo log.
func (c *Cache) CommitJournal() {
	if !c.journaling {
		panic("cache: CommitJournal without BeginJournal")
	}
	c.journaling = false
	c.jlog = c.jlog[:0]
}

// Rollback closes the journal restoring the exact state at BeginJournal:
// line contents, residency counters, and statistics. Owner slots interned
// during the journal remain interned (with zero residency); interning is
// not an observable effect.
func (c *Cache) Rollback() {
	if !c.journaling {
		panic("cache: Rollback without BeginJournal")
	}
	c.journaling = false
	for k := len(c.jlog) - 1; k >= 0; k-- {
		e := &c.jlog[k]
		l := &c.lines[e.idx]
		l.tag = e.tag
		l.meta = e.meta
		l.used = e.used
	}
	c.jlog = c.jlog[:0]
	for i := range c.resCount {
		if i < len(c.jres) {
			c.resCount[i] = c.jres[i]
		} else {
			c.resCount[i] = 0
		}
	}
	c.accesses = c.jctr.accesses
	c.misses = c.jctr.misses
	c.evicted = c.jctr.evicted
	c.occupied = c.jctr.occupied
}

// Stats reports cumulative access counts.
type Stats struct {
	Accesses uint64
	Misses   uint64
	Evicted  uint64
}

// Stats returns cumulative counters since construction (Flush does not
// reset them).
func (c *Cache) Stats() Stats {
	return Stats{Accesses: c.accesses, Misses: c.misses, Evicted: c.evicted}
}

// Clone returns an independent deep copy of the cache. The single-replay
// plan/commit protocol no longer clones on the hot path; Clone remains for
// the clone-based oracle model and tests. It panics while a journal is
// open.
func (c *Cache) Clone() *Cache {
	if c.journaling {
		panic("cache: Clone during an open journal")
	}
	out := *c
	out.lines = append([]lineRec(nil), c.lines...)
	out.ownerOf = append([]int(nil), c.ownerOf...)
	out.resCount = append([]int32(nil), c.resCount...)
	out.slotOf = make(map[int]uint64, len(c.slotOf))
	for k, v := range c.slotOf {
		out.slotOf[k] = v
	}
	for i := range out.lines {
		out.lines[i].jmark = 0
	}
	out.jgen = 0
	out.jlog = nil
	out.jres = nil
	return &out
}
