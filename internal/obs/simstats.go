package obs

import (
	"context"
	"sort"
	"sync"
)

// SimStats is the per-run decomposition of simulator activity in the
// terms of the paper's Figure 1: how much work was done, how much was
// wasted spinning, how many reallocations happened (split by whether
// the task kept affinity for its last processor), and how much time the
// cache-reload transient cost. All fields are plain integers except
// InvalLines (a deterministic float folded from the cache model), so
// Merge is exact and order-independent for any fixed multiset of runs.
//
// The scheduler fills the dispatch/penalty fields; the cache model
// fills Plans/Commits/Flushes/InvalLines. Only protocol-invariant
// quantities are counted: the exact model's fast (journal/rollback) and
// naive (clone-and-replay) protocols produce identical SimStats for the
// same run, so differential tests can compare whole Results.
type SimStats struct {
	Runs       uint64 `json:"runs"`        // simulation runs folded into this struct
	Events     uint64 `json:"events"`      // discrete events fired
	EventqPeak uint64 `json:"eventq_peak"` // max pending-event depth (Merge takes the max)

	Reallocations uint64 `json:"reallocations"` // dispatches that were not a same-task continuation
	Migrations    uint64 `json:"migrations"`    // reallocations onto a different processor than last time
	PACharges     uint64 `json:"pa_charges"`    // reallocations resuming on the last processor (P^A penalty)
	PNACharges    uint64 `json:"pna_charges"`   // reallocations with no useful footprint left (P^NA penalty)
	PenaltyNs     int64  `json:"penalty_ns"`    // cache-reload transient: miss stall of the first segment after each reallocation

	WorkNs   int64 `json:"work_ns"`   // useful compute
	WasteNs  int64 `json:"waste_ns"`  // synchronization spinning
	SwitchNs int64 `json:"switch_ns"` // context-switch overhead charged by the engine
	MissNs   int64 `json:"miss_ns"`   // total miss stall (includes the reload transient)

	Plans      uint64  `json:"plans"`       // cache-model Plan calls (one per executed segment)
	Commits    uint64  `json:"commits"`     // cache-model Commit calls
	Flushes    uint64  `json:"flushes"`     // coherency invalidation sweeps / cache flush events
	InvalLines float64 `json:"inval_lines"` // lines invalidated by coherency writes
}

// Merge folds o into s. Counters add; EventqPeak takes the max (it is a
// high-water mark, not a total).
func (s *SimStats) Merge(o SimStats) {
	s.Runs += o.Runs
	s.Events += o.Events
	if o.EventqPeak > s.EventqPeak {
		s.EventqPeak = o.EventqPeak
	}
	s.Reallocations += o.Reallocations
	s.Migrations += o.Migrations
	s.PACharges += o.PACharges
	s.PNACharges += o.PNACharges
	s.PenaltyNs += o.PenaltyNs
	s.WorkNs += o.WorkNs
	s.WasteNs += o.WasteNs
	s.SwitchNs += o.SwitchNs
	s.MissNs += o.MissNs
	s.Plans += o.Plans
	s.Commits += o.Commits
	s.Flushes += o.Flushes
	s.InvalLines += o.InvalLines
}

// CampaignStats accumulates SimStats across the cells of one campaign
// (or several campaigns sharing a collector), keyed by policy (or
// driver) label. It is safe for concurrent use. Each cell collects into
// its own CampaignStats, which AddCell then folds in and counts; campaign
// drivers fold cells in deterministic grid order after the parallel phase
// completes, so the totals are identical at any worker count.
type CampaignStats struct {
	mu        sync.Mutex
	cells     uint64
	total     SimStats
	perPolicy map[string]*SimStats
}

// NewCampaignStats returns an empty collector.
func NewCampaignStats() *CampaignStats {
	return &CampaignStats{perPolicy: make(map[string]*SimStats)}
}

// Add folds one run's (or one driver's) stats under the given policy
// label.
func (c *CampaignStats) Add(policy string, s SimStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.total.Merge(s)
	p := c.perPolicy[policy]
	if p == nil {
		p = &SimStats{}
		c.perPolicy[policy] = p
	}
	p.Merge(s)
	c.mu.Unlock()
}

// AddCell folds in everything one cell's collector o has collected, as one
// grouped Add per policy, and counts the cell. Folding per-cell collectors
// in grid order this way makes the totals independent of the order
// concurrent cells finished in — even InvalLines, the one float, whose
// sums depend on association order.
func (c *CampaignStats) AddCell(o *CampaignStats) {
	if c == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cells++
	c.total.Merge(o.total)
	for policy, s := range o.perPolicy {
		p := c.perPolicy[policy]
		if p == nil {
			p = &SimStats{}
			c.perPolicy[policy] = p
		}
		p.Merge(*s)
	}
}

// CampaignSnapshot is a point-in-time copy of a CampaignStats.
// PolicyOrder lists PerPolicy's keys sorted, so renderers iterate
// deterministically.
type CampaignSnapshot struct {
	Cells       uint64              `json:"cells"` // cells folded in by AddCell
	Total       SimStats            `json:"total"`
	PerPolicy   map[string]SimStats `json:"per_policy"`
	PolicyOrder []string            `json:"-"`
}

// Snapshot copies the collector's current state. Safe to call while
// cells are still being folded in.
func (c *CampaignStats) Snapshot() CampaignSnapshot {
	snap := CampaignSnapshot{PerPolicy: map[string]SimStats{}}
	if c == nil {
		return snap
	}
	c.mu.Lock()
	snap.Cells = c.cells
	snap.Total = c.total
	for k, v := range c.perPolicy {
		snap.PerPolicy[k] = *v
		snap.PolicyOrder = append(snap.PolicyOrder, k)
	}
	c.mu.Unlock()
	sort.Strings(snap.PolicyOrder)
	return snap
}

type collectorKey struct{}

// WithCollector returns a context carrying the collector; campaign
// entry points (the registry's run functions) retrieve it with
// CollectorFrom and attach it to the run options. A nil collector is
// legal and yields a context with no collector.
func WithCollector(ctx context.Context, c *CampaignStats) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, collectorKey{}, c)
}

// CollectorFrom extracts the collector from ctx, or nil if none.
func CollectorFrom(ctx context.Context) *CampaignStats {
	c, _ := ctx.Value(collectorKey{}).(*CampaignStats)
	return c
}
