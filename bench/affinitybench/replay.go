package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/diskstore"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// replayer re-sends a traced window's requests by calling each layer's
// public functions directly, in the order internal/service calls them,
// on instances configured as in the timed run, and times every call. It
// deploys only what the workload deploys: a disk store on disk-restart, a
// two-worker fleet on fleet.
type replayer struct {
	tr     *tracer
	bodies *resultcache.Cache
	cells  *resultcache.Cache
	store  *diskstore.Store // disk-restart: a copy of the timed run's store
	fleet  *deployment      // fleet: dispatches every executed cell
	sim    *obs.CampaignStats

	mu         sync.Mutex
	ops        map[string][]time.Duration
	mismatches int
}

// bodyKey normalizes r's params as internal/service does and derives the
// body-cache key from them, with Workers zeroed; the params returned keep
// the request's Workers, which the service runs the campaign with.
func bodyKey(r *request) (string, experiments.CampaignParams, error) {
	camp, ok := experiments.CampaignByKind(r.Kind)
	if !ok {
		return "", experiments.CampaignParams{}, fmt.Errorf("unknown kind %q", r.Kind)
	}
	np, err := camp.Normalize(r.Params)
	if err != nil {
		return "", np, err
	}
	keyed := np
	keyed.Workers = 0
	canon, err := report.CanonicalJSON(keyed)
	if err != nil {
		return "", np, err
	}
	return resultcache.Key(r.Kind, canon, version.Engine), np, nil
}

// op records one timed call that began at start.
func (rp *replayer) op(kind, rid string, parent int, start time.Time) {
	end := time.Now()
	rp.tr.add(span{kind: kind, node: "replay", rid: rid, key: rid, parent: parent, start: start, end: end})
	rp.mu.Lock()
	rp.ops[kind] = append(rp.ops[kind], end.Sub(start))
	rp.mu.Unlock()
}

func storeGetKind(hit bool) string {
	if hit {
		return "diskstore.get"
	}
	return "diskstore.get_miss"
}

// execKind names the layer that executes a cell: the Table-1 measurement
// path, the analytic estimator, or the discrete-event scheduler.
func execKind(plan *experiments.CellPlan, c *experiments.Cell) string {
	switch {
	case plan.Kind == "table1":
		return "measure.exec"
	case c.Engine == experiments.EngineAnalytic:
		return "analytic.exec"
	}
	return "sched.exec"
}

// request replays r, the i-th request of the window, and returns its wall
// time. want is the digest of the body the timed run served; a replay
// that produces other bytes counts as a mismatch.
func (rp *replayer) request(i int, r *request, want [sha256.Size]byte) (time.Duration, error) {
	ctx := context.Background()
	rid := "p" + strconv.Itoa(i)
	start := time.Now()
	root := rp.tr.add(span{kind: "replay.request", node: "replay", key: rid, start: start})

	t := time.Now()
	key, np, err := bodyKey(r)
	if err != nil {
		return 0, err
	}
	rp.op("service.key", rid, root, t)
	t = time.Now()
	body, ok := rp.bodies.Get(key)
	rp.op("resultcache.get", rid, root, t)
	if !ok && rp.store != nil {
		t = time.Now()
		b, cost, hit := rp.store.Get(key)
		rp.op(storeGetKind(hit), rid, root, t)
		if hit {
			t = time.Now()
			rp.bodies.PutCost(key, b, cost)
			rp.op("resultcache.put", rid, root, t)
			body, ok = b, true
		}
	}
	if !ok {
		t = time.Now()
		plan, err := experiments.Cells(r.Kind, np)
		if err != nil {
			return 0, err
		}
		rp.op("experiments.plan", rid, root, t)
		partials := make([][]byte, len(plan.Cells))
		budget := fleet.NewBudget(16) // service.Config's default HedgeBudget
		err = parallel.ForEach(ctx, np.Workers, len(plan.Cells), func(ctx context.Context, k int) error {
			cell := &plan.Cells[k]
			ck := cellKey(cell)
			t := time.Now()
			b, hit := rp.cells.Get(ck)
			rp.op("resultcache.get", rid, root, t)
			if hit {
				partials[k] = b
				return nil
			}
			if rp.store != nil {
				t = time.Now()
				b, cost, hit := rp.store.Get(ck)
				rp.op(storeGetKind(hit), rid, root, t)
				if hit {
					t = time.Now()
					rp.cells.PutCost(ck, b, cost)
					rp.op("resultcache.put", rid, root, t)
					partials[k] = b
					return nil
				}
			}
			began := time.Now()
			var out []byte
			if rp.fleet != nil {
				resp, err := rp.fleet.coord.DispatchBudget(ctx, fleet.ExecuteRequest{
					Kind: plan.Kind, Params: np, Index: k, CellID: cell.ID, Key: ck, RequestID: rid}, budget)
				rp.op("fleet.call", rid, root, began)
				if err == nil {
					out = resp.Body
				}
			}
			if out == nil {
				t = time.Now()
				kind, cctx := execKind(plan, cell), ctx
				if kind == "sched.exec" {
					cctx = obs.WithCollector(ctx, rp.sim) // for sched.ns_per_event
				}
				res, err := cell.Run(cctx)
				if err != nil {
					return err
				}
				rp.op(kind, rid, root, t)
				t = time.Now()
				if out, err = report.CanonicalJSON(res); err != nil {
					return err
				}
				rp.op("report.encode_cell", rid, root, t)
			}
			cost := uint64(time.Since(began))
			t = time.Now()
			rp.cells.PutCost(ck, out, cost)
			rp.op("resultcache.put", rid, root, t)
			if rp.store != nil {
				t = time.Now()
				rp.store.Put(ck, out, cost)
				rp.op("diskstore.put", rid, root, t)
			}
			partials[k] = out
			return nil
		})
		if err != nil {
			return 0, err
		}
		t = time.Now()
		res, err := plan.Merge(ctx, partials)
		if err != nil {
			return 0, err
		}
		rp.op("experiments.merge", rid, root, t)
		t = time.Now()
		if body, err = report.CanonicalJSON(res); err != nil {
			return 0, err
		}
		rp.op("report.encode", rid, root, t)
		cost := uint64(time.Since(start))
		t = time.Now()
		rp.bodies.PutCost(key, body, cost)
		rp.op("resultcache.put", rid, root, t)
		if rp.store != nil {
			t = time.Now()
			rp.store.Put(key, body, cost)
			rp.op("diskstore.put", rid, root, t)
		}
	}
	rp.tr.finish(root)
	wall := time.Since(start)
	if sha256.Sum256(body) != want {
		rp.mismatches++
	}
	return wall, nil
}

// close shuts the replay's instances down.
func (rp *replayer) close() error {
	var err error
	if rp.fleet != nil {
		err = rp.fleet.close()
	}
	if rp.store != nil {
		if serr := rp.store.Close(); err == nil {
			err = serr
		}
	}
	return err
}
