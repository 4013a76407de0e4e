package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// oracle computes reference bodies off the serving path: the campaign's
// cell plan at Workers 1, each cell run and canonically encoded, then
// merged. No HTTP, cache, store or fleet is involved. Partials are
// memoized by cell key, so a reshaped campaign costs one merge.
type oracle struct {
	mu       sync.Mutex
	partials map[string][]byte
	digests  map[string][sha256.Size]byte // by request body
}

func newOracle() *oracle {
	return &oracle{partials: map[string][]byte{}, digests: map[string][sha256.Size]byte{}}
}

func cellKey(c *experiments.Cell) string {
	return resultcache.Key(c.KeyKind, c.KeyParams, version.Engine)
}

func referencePlan(r *request) (*experiments.CellPlan, error) {
	p := r.Params
	p.Workers = 1
	plan, err := experiments.Cells(r.Kind, p)
	if err != nil {
		return nil, fmt.Errorf("reference plan %s: %w", r.body, err)
	}
	return plan, nil
}

// prepare computes, on every CPU, the reference digest of each request
// body in reqs not yet digested: first each cell not yet memoized, then
// each body's merge.
func (o *oracle) prepare(reqs []*request) error {
	var todo []*experiments.Cell
	var keys []string
	var bodies []string
	var plans []*experiments.CellPlan
	queued := map[string]bool{}
	for _, r := range reqs {
		if _, done := o.digests[string(r.body)]; done || queued[string(r.body)] {
			continue
		}
		queued[string(r.body)] = true
		plan, err := referencePlan(r)
		if err != nil {
			return err
		}
		bodies, plans = append(bodies, string(r.body)), append(plans, plan)
		for i := range plan.Cells {
			k := cellKey(&plan.Cells[i])
			if _, done := o.partials[k]; !done && !queued[k] {
				queued[k] = true
				todo = append(todo, &plan.Cells[i])
				keys = append(keys, k)
			}
		}
	}
	err := parallel.ForEach(context.Background(), 0, len(todo), func(ctx context.Context, i int) error {
		res, err := todo[i].Run(ctx)
		if err != nil {
			return fmt.Errorf("reference cell %s: %w", todo[i].ID, err)
		}
		b, err := report.CanonicalJSON(res)
		if err != nil {
			return err
		}
		o.mu.Lock()
		o.partials[keys[i]] = b
		o.mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	digests := make([][sha256.Size]byte, len(plans))
	err = parallel.ForEach(context.Background(), 0, len(plans), func(ctx context.Context, i int) error {
		b, err := o.merge(plans[i])
		digests[i] = sha256.Sum256(b)
		return err
	})
	for i, b := range bodies {
		o.digests[b] = digests[i]
	}
	return err
}

// merge assembles a plan's reference body from memoized partials.
func (o *oracle) merge(plan *experiments.CellPlan) ([]byte, error) {
	parts := make([][]byte, len(plan.Cells))
	for i := range plan.Cells {
		parts[i] = o.partials[cellKey(&plan.Cells[i])]
	}
	res, err := plan.Merge(context.Background(), parts)
	if err != nil {
		return nil, err
	}
	return report.CanonicalJSON(res)
}

// body returns r's reference body; call prepare first.
func (o *oracle) body(r *request) ([]byte, error) {
	plan, err := referencePlan(r)
	if err != nil {
		return nil, err
	}
	return o.merge(plan)
}

// verify compares the body of every every-th successful response with
// its reference, by SHA-256 of the full bytes, returning the number of
// mismatches. Failed requests are counted elsewhere.
func (o *oracle) verify(reqs []request, outs []outcome, every int) (int, error) {
	var checked []*request
	for i := 0; i < len(reqs); i += every {
		checked = append(checked, &reqs[i])
	}
	if err := o.prepare(checked); err != nil {
		return 0, err
	}
	bad := 0
	for i := 0; i < len(reqs); i += every {
		if outs[i].ok() && outs[i].digest != o.digests[string(reqs[i].body)] {
			bad++
		}
	}
	return bad, nil
}

// invariants counts broken cache and fleet invariants in a window's
// /metrics delta: every cell miss executes exactly once (locally or on a
// worker), every dispatch attempt resolves as a remote cell, a discarded
// duplicate or a failure, and no write-behind Put is dropped.
func invariants(d counters, fleet bool) []string {
	var broken []string
	if d["affinityd_cell_misses_total"] != d["affinityd_cell_executions_total"] {
		broken = append(broken, fmt.Sprintf("cell misses %v != executions %v",
			d["affinityd_cell_misses_total"], d["affinityd_cell_executions_total"]))
	}
	if fleet {
		disp := d["affinityd_fleet_dispatches_total"]
		resolved := d["affinityd_fleet_remote_cells_total"] + d["affinityd_fleet_duplicates_discarded_total"] +
			d["affinityd_fleet_attempt_failures_total"]
		if disp != resolved {
			broken = append(broken, fmt.Sprintf("fleet dispatches %v != remote + duplicates + failures %v", disp, resolved))
		}
	}
	if v := d["affinityd_store_dropped_total"]; v != 0 {
		broken = append(broken, fmt.Sprintf("%v store Puts dropped", v))
	}
	return broken
}
