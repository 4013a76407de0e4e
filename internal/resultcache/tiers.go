package resultcache

import (
	"context"
	"time"

	"repro/internal/diskstore"
)

// Source names the step of a tier chain that answered a lookup.
type Source int

const (
	Miss     Source = iota // nothing answered
	Memory                 // the in-memory LRU tier
	Disk                   // the persistent store
	Filled                 // Produce's fill step (a fleet worker)
	Executed               // Produce's run step
)

// Tiers is the result lookup chain: a memory tier over a disk tier,
// either of which may be nil. It owns the chain's policy so every
// caller agrees on it: a disk hit is promoted into memory with its
// cost, and bytes produced on a miss are filed in both tiers.
type Tiers struct {
	Memory *Cache
	Disk   *diskstore.Store
}

// Lookup is the outcome of one walk of the chain.
type Lookup struct {
	Body   []byte // shared; must not be modified
	CostNs uint64 // the production cost the bytes are filed under
	Source Source
	// MemoryProbe and DiskProbe time each tier's Get (zero for a tier
	// not probed); MissPath is Produce's wall time after both missed.
	MemoryProbe, DiskProbe, MissPath time.Duration
}

// Get looks key up in memory, then on disk; a disk hit is promoted
// into memory with its cost.
func (t Tiers) Get(key string) (l Lookup) {
	var ok bool
	if t.Memory != nil {
		start := time.Now()
		l.Body, l.CostNs, ok = t.Memory.GetCost(key)
		if l.MemoryProbe = time.Since(start); ok {
			l.Source = Memory
			return l
		}
	}
	if t.Disk != nil {
		start := time.Now()
		l.Body, l.CostNs, ok = t.Disk.Get(key)
		if l.DiskProbe = time.Since(start); ok {
			l.Source = Disk
			if t.Memory != nil {
				t.Memory.PutCost(key, l.Body, l.CostNs)
			}
		}
	}
	return l
}

// Put files body under key in both tiers; the disk write is
// write-behind and never blocks.
func (t Tiers) Put(key string, body []byte, costNs uint64) {
	if t.Memory != nil {
		t.Memory.PutCost(key, body, costNs)
	}
	if t.Disk != nil {
		t.Disk.Put(key, body, costNs)
	}
}

// Resolve is Get, then on a miss Produce.
func (t Tiers) Resolve(ctx context.Context, key string,
	fill func(context.Context) ([]byte, uint64, bool),
	run func(context.Context) ([]byte, error)) (Lookup, error) {
	l := t.Get(key)
	if l.Source != Miss {
		return l, nil
	}
	return t.Produce(ctx, key, l, fill, run)
}

// Produce is Resolve's miss step, for a caller that probed key with Get
// already and got the miss l: fill (a remote source), then run only if
// fill missed; a nil step is skipped, so with run nil the lookup can end
// a Miss. The produced bytes are filed in both tiers under the cost of
// the step that produced them, a zero cost becoming that step's wall
// time. A run error is returned and nothing is filed. The result keeps
// l's probe timings.
func (t Tiers) Produce(ctx context.Context, key string, l Lookup,
	fill func(context.Context) ([]byte, uint64, bool),
	run func(context.Context) ([]byte, error)) (Lookup, error) {
	start := time.Now()
	step := start
	if fill != nil {
		if body, costNs, ok := fill(ctx); ok {
			l.Body, l.CostNs, l.Source = body, costNs, Filled
		}
	}
	if l.Source == Miss && run != nil {
		step = time.Now()
		body, err := run(ctx)
		if err != nil {
			return l, err
		}
		l.Body, l.Source = body, Executed
	}
	now := time.Now()
	if l.MissPath = now.Sub(start); l.Source == Miss {
		return l, nil
	}
	if l.CostNs == 0 {
		l.CostNs = uint64(now.Sub(step))
	}
	t.Put(key, l.Body, l.CostNs)
	return l, nil
}
