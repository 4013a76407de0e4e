// Package footprint is the analytic per-processor cache occupancy model
// used inside the discrete-event scheduler simulation.
//
// Replaying every memory reference through the exact simulator in
// internal/cache is affordable for the Section-4 single-processor
// measurements, but not inside multi-minute, twenty-processor scheduling
// runs. Following Thiebaut & Stone's footprint treatment (which the paper
// cites for exactly this purpose), this package tracks, for each processor,
// the expected number of cache lines each task has resident, with:
//
//   - saturating footprint growth driven by the task's reference pattern
//     (memtrace.Pattern.TouchRate);
//   - proportional eviction: a task's new lines displace other tasks'
//     lines in proportion to their current occupancy;
//   - overlap discounting: of the distinct lines a resuming task touches,
//     a fraction equal to its resident share is assumed still cached.
//
// The model is validated against the exact cache simulator in the package
// tests and in the ablation benchmark (see DESIGN.md §4).
package footprint

import (
	"fmt"
	"math"

	"repro/internal/simtime"
)

// overlapExponent shapes the survival discount in Segment. With exponent 1
// (uniform overlap) the model badly overestimates reload misses at short
// resume intervals, because LRU preferentially evicts a task's stalest
// lines while the resuming task re-touches its freshest lines first.
// Calibration against the exact simulator (see TestModelAgreesWithExactCache
// and cmd/calib) shows an exponent of 1.2 tracks actual reload misses
// within about a factor of two across the 100–400 ms reallocation
// intervals the scheduling experiments operate at.
const overlapExponent = 1.2

// Profile describes a task's reference behaviour; memtrace.Pattern
// implements it.
type Profile interface {
	// TouchRate returns the expected number of distinct lines touched
	// during an execution interval of the given length.
	TouchRate(d simtime.Duration) float64
	// LiveFootprint returns the asymptotic number of distinct lines with
	// cacheable reuse.
	LiveFootprint() int
}

// Cache models one processor's cache occupancy, in (fractional) lines,
// keyed by task identifier.
//
// Occupancy entries are stored in a slice so that the proportional-eviction
// arithmetic iterates tasks in a deterministic order: identical simulation
// runs must produce bitwise identical results, and map iteration order would
// perturb floating-point accumulation. A task is found by scanning the
// slice: a processor's cache holds the lines of only a few tasks at a
// time, so the scan is cheaper than a hash lookup and there is no index to
// keep in step with swap-removal.
type Cache struct {
	capacity float64
	entries  []entry
	occupied float64
}

type entry struct {
	task  int
	lines float64
}

// New creates an occupancy model for a cache of the given capacity in
// lines.
func New(capacityLines int) (*Cache, error) {
	if capacityLines <= 0 {
		return nil, fmt.Errorf("footprint: capacity must be positive, got %d", capacityLines)
	}
	return &Cache{capacity: float64(capacityLines)}, nil
}

// MustNew is New for known-good capacities.
func MustNew(capacityLines int) *Cache {
	c, err := New(capacityLines)
	if err != nil {
		panic(err)
	}
	return c
}

// Capacity returns the modelled capacity in lines.
func (c *Cache) Capacity() float64 { return c.capacity }

// find returns task's position in entries, or -1 when it has no lines.
func (c *Cache) find(task int) int {
	for i := range c.entries {
		if c.entries[i].task == task {
			return i
		}
	}
	return -1
}

// Resident returns the expected number of lines task currently has
// resident.
func (c *Cache) Resident(task int) float64 {
	if i := c.find(task); i >= 0 {
		return c.entries[i].lines
	}
	return 0
}

// Occupied returns the total expected occupancy in lines.
func (c *Cache) Occupied() float64 { return c.occupied }

// Flush empties the cache.
func (c *Cache) Flush() {
	c.entries = c.entries[:0]
	c.occupied = 0
}

// Reset prepares the cache for a fresh simulation run: occupancy is
// emptied while the entry slice keeps its allocated capacity, so a cache
// reused across the replications of an experiment cell stops re-growing
// its internals after the first run.
func (c *Cache) Reset() { c.Flush() }

// remove drops the entry at position i by swapping with the last entry.
func (c *Cache) remove(i int) {
	last := len(c.entries) - 1
	c.entries[i] = c.entries[last]
	c.entries = c.entries[:last]
}

// Tasks is an ascending set of task ids prepared for Invalidate. A dense
// range with at most one id missing — a writer's siblings, which are its
// job's task ids minus its own — is tested for membership by comparisons
// alone; any other set by binary search. Preparing the set once serves a
// whole sweep over the processors' caches.
type Tasks struct {
	ids    []int
	lo, hi int
	// gap is the id a dense range lacks, or lo-1 when it lacks none.
	gap   int
	dense bool
}

// NewTasks prepares the ascending, distinct ids. The set refers to ids,
// which must not change while it is in use.
func NewTasks(ids []int) Tasks {
	if len(ids) == 0 {
		return Tasks{}
	}
	t := Tasks{ids: ids, lo: ids[0], hi: ids[len(ids)-1]}
	switch t.hi - t.lo + 1 {
	case len(ids):
		t.dense, t.gap = true, t.lo-1
	case len(ids) + 1:
		// The gap is at the first position whose id is past its slot.
		lo, hi := 0, len(ids)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if ids[m] == t.lo+m {
				lo = m + 1
			} else {
				hi = m
			}
		}
		t.dense, t.gap = true, t.lo+lo
	}
	return t
}

// has reports whether task is in the set.
func (t *Tasks) has(task int) bool {
	if task < t.lo || task > t.hi {
		return false
	}
	if t.dense {
		return task != t.gap
	}
	return listed(t.ids, task)
}

// Invalidate removes up to lines of each task's residency, modelling
// coherency invalidations when another processor writes lines the tasks
// have cached. It returns sum plus the lines actually invalidated, added
// task by task in ascending task order, so that a caller summing over
// several caches adds in one fixed order. The entries change exactly as
// invalidating each task in turn would change them, since an absent task
// is a no-op.
//
// Only the cache's own entries are scanned: the cost grows with the few
// tasks resident here, not with the size of the set. An empty cache costs
// one comparison.
func (c *Cache) Invalidate(tasks *Tasks, lines, sum float64) float64 {
	if len(c.entries) == 0 || lines <= 0 {
		return sum
	}
	return c.invalidate(tasks, lines, sum)
}

func (c *Cache) invalidate(tasks *Tasks, lines, sum float64) float64 {
	// One pass finds the listed entries: a processor rarely holds more
	// than one of a job's other tasks.
	at, n := -1, 0
	for i := range c.entries {
		if tasks.has(c.entries[i].task) {
			at = i
			n++
		}
	}
	if n <= 1 {
		if at >= 0 {
			sum += c.invalidateAt(at, lines)
		}
		return sum
	}
	// Several: smallest listed task first. A full removal swaps the last
	// entry into its slot, so each step scans afresh.
	for last := math.MinInt; ; {
		at := -1
		for i := range c.entries {
			task := c.entries[i].task
			if task > last && (at < 0 || task < c.entries[at].task) && tasks.has(task) {
				at = i
			}
		}
		if at < 0 {
			return sum
		}
		last = c.entries[at].task
		sum += c.invalidateAt(at, lines)
	}
}

// listed reports whether the ascending tasks hold task.
func listed(tasks []int, task int) bool {
	lo, hi := 0, len(tasks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tasks[m] < task {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(tasks) && tasks[lo] == task
}

// invalidateAt removes up to lines of the residency at entries[i] and
// returns the lines removed.
func (c *Cache) invalidateAt(i int, lines float64) float64 {
	if lines >= c.entries[i].lines {
		removed := c.entries[i].lines
		c.occupied -= removed
		c.remove(i)
		return removed
	}
	c.entries[i].lines -= lines
	c.occupied -= lines
	return lines
}

// Load installs lines for task, displacing other tasks' lines
// proportionally to their occupancy when the cache is full. The task's own
// residency is capped at capacity.
func (c *Cache) Load(task int, lines float64) {
	if lines <= 0 {
		return
	}
	r := c.Resident(task)
	target := r + lines
	if target > c.capacity {
		target = c.capacity
	}
	grow := target - r
	if grow <= 0 {
		return
	}
	free := c.capacity - c.occupied
	if grow > free {
		// Displace others proportionally to their share of the cache.
		need := grow - free
		others := c.occupied - r
		if others > 0 {
			scale := 1 - need/others
			if scale < 0 {
				scale = 0
			}
			for i := 0; i < len(c.entries); {
				e := &c.entries[i]
				if e.task == task {
					i++
					continue
				}
				nv := e.lines * scale
				c.occupied += nv - e.lines
				if nv < 1e-9 {
					c.occupied -= nv
					c.remove(i)
					continue // a swapped-in entry now occupies slot i
				}
				e.lines = nv
				i++
			}
		}
	}
	if i := c.find(task); i >= 0 {
		c.entries[i].lines += grow
	} else {
		c.entries = append(c.entries, entry{task: task, lines: r + grow})
	}
	c.occupied += grow
	if c.occupied > c.capacity {
		c.occupied = c.capacity
	}
}

// Segment computes the expected number of cache misses when a task with
// profile p executes the compute interval [t0, t1) of its current
// scheduling dispatch, having had r0 lines resident at dispatch time.
//
// Coverage is measured from the start of the dispatch: the task touches
// TouchRate(t1) − TouchRate(t0) distinct lines during the interval, and a
// fraction r0/LiveFootprint of them are assumed still resident.
func Segment(p Profile, t0, t1 simtime.Duration, r0 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	touched := p.TouchRate(t1) - p.TouchRate(t0)
	if touched <= 0 {
		return 0
	}
	live := float64(p.LiveFootprint())
	if live <= 0 {
		return touched
	}
	frac := 1 - r0/live
	if frac < 0 {
		frac = 0
	}
	return touched * math.Pow(frac, overlapExponent)
}

// RunSegment applies Segment and updates the cache occupancy: the misses
// are installed as new lines for the task. It returns the expected miss
// count.
func (c *Cache) RunSegment(task int, p Profile, t0, t1 simtime.Duration, r0 float64) float64 {
	misses := Segment(p, t0, t1, r0)
	c.Load(task, misses)
	return misses
}
