package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// This file is the server's one execution path: every job runs as its
// experiments.CellPlan — each cell is looked up in the per-cell result
// cache, only the missing ones execute, and each completed cell is
// cached immediately. A campaign cancelled mid-flight therefore leaves
// its finished cells behind, and a re-submission (or a superset campaign
// sharing a sub-grid) resumes instead of restarting.
// The merged body is byte-identical to an in-process experiments.Run of
// the same params — the experiments-layer contract pinned by its body
// goldens — so the campaign-level cache and the cell cache never
// disagree.

// jobEvent is one NDJSON line of GET /v1/jobs/{id}/events: a "cell"
// progress event per completed cell, then exactly one terminal event
// ("done", "failed", or "canceled") before the stream closes.
type jobEvent struct {
	APIVersion string `json:"api_version"`
	// Type is "cell" for per-cell progress, or the terminal job status.
	Type  string `json:"type"`
	JobID string `json:"job_id"`
	// Seq increments by one per event within the job, from 1.
	Seq int `json:"seq"`
	// Cell names the completed cell ("q=100ms/app=MVA"); empty on
	// terminal events.
	Cell string `json:"cell,omitempty"`
	// Index is the cell's position in the plan; -1 on terminal events.
	Index int `json:"index"`
	// Cache is "hit" (memory tier), "disk" (persistent tier), or "miss"
	// for cell events — and "miss" on terminal events, mirroring the
	// X-Cache header a synchronous submit would have carried (a job only
	// exists for a fresh run).
	Cache string `json:"cache,omitempty"`
	// Engine is the cell's resolved execution tier ("sim" or "analytic")
	// on cell events of the grid-shaped kinds; empty elsewhere.
	Engine string `json:"engine,omitempty"`
	// Worker is the advertised URL of the fleet worker that produced a
	// remotely executed cell; empty for local execution and cache tiers.
	Worker string `json:"worker,omitempty"`
	// Placement attributes the coordinator's scored placement decision
	// for a remotely executed cell ("score=… load=… rtt_ms=… penalty=…",
	// or "peer_fill" when a worker's cache tier served the bytes after
	// dispatch failed); empty for local execution and cache tiers.
	Placement      string `json:"placement,omitempty"`
	CellsTotal     int    `json:"cells_total"`
	CellsDone      int    `json:"cells_done"`
	CellsFromCache int    `json:"cells_from_cache"`
	CellsFromDisk  int    `json:"cells_from_disk"`
	// RequestID mirrors the X-Request-Id of the submitting request.
	RequestID string `json:"request_id,omitempty"`
	Error     string `json:"error,omitempty"`
	ResultURL string `json:"result_url,omitempty"`
}

// cellTracker accumulates a job's cell progress and its event log.
// Readers (status views, the events stream) and writers (the executing
// worker, setTerminal) synchronize on its own lock, never the job's.
type cellTracker struct {
	mu        sync.Mutex
	total     int
	done      int
	fromCache int
	fromDisk  int
	remote    int
	// workers counts remotely executed cells per worker URL; nil until
	// the first remote cell.
	workers map[string]int
	events  []jobEvent
	// changed is closed and replaced whenever an event is appended;
	// stream handlers park on the current instance.
	changed chan struct{}
}

func newCellTracker() *cellTracker {
	return &cellTracker{changed: make(chan struct{})}
}

func (t *cellTracker) setTotal(n int) {
	t.mu.Lock()
	t.total = n
	t.mu.Unlock()
}

func (t *cellTracker) counts() (total, done, fromCache, fromDisk int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.done, t.fromCache, t.fromDisk
}

// remoteCounts snapshots the fleet attribution: how many cells were
// executed by workers, and by whom.
func (t *cellTracker) remoteCounts() (remote int, workers map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.workers) > 0 {
		workers = make(map[string]int, len(t.workers))
		for w, n := range t.workers {
			workers[w] = n
		}
	}
	return t.remote, workers
}

// appendLocked stamps the event with the tracker's current counts and
// sequence, appends it, and wakes stream readers. Callers hold t.mu.
func (t *cellTracker) appendLocked(ev jobEvent) {
	ev.APIVersion = apiVersion
	ev.Seq = len(t.events) + 1
	ev.CellsTotal = t.total
	ev.CellsDone = t.done
	ev.CellsFromCache = t.fromCache
	ev.CellsFromDisk = t.fromDisk
	t.events = append(t.events, ev)
	close(t.changed)
	t.changed = make(chan struct{})
}

// recordCell logs one completed cell; cache is "hit" (memory), "disk"
// (persistent tier), or "miss", engine the cell's resolved tier ("" for
// kinds without one), worker the fleet worker that executed a remote
// cell ("" for local execution and cache tiers), placement the scored
// decision that routed it there.
func (t *cellTracker) recordCell(jobID, cellID string, index int, cache, engine, worker, placement string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.done++
	switch cache {
	case "hit":
		t.fromCache++
	case "disk":
		t.fromDisk++
	}
	if worker != "" {
		t.remote++
		if t.workers == nil {
			t.workers = make(map[string]int)
		}
		t.workers[worker]++
	}
	t.appendLocked(jobEvent{Type: "cell", JobID: jobID, Cell: cellID, Index: index, Cache: cache, Engine: engine, Worker: worker, Placement: placement})
}

// recordTerminal logs the job's final event. Called from setTerminal
// before j.done closes, so a stream reader woken by the close is
// guaranteed to observe it.
func (t *cellTracker) recordTerminal(ev jobEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ev.Index = -1
	t.appendLocked(ev)
}

// snapshot returns the event log so far and the channel that closes on
// the next append.
func (t *cellTracker) snapshot() ([]jobEvent, <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events[:len(t.events):len(t.events)], t.changed
}

// runCells executes one job through its cell plan, reusing cached cells
// and caching fresh ones as they complete. It returns the merged
// campaign body, canonically encoded.
func (s *Server) runCells(j *job) ([]byte, error) {
	plan, err := experiments.Cells(j.kind, j.params)
	if err != nil {
		return nil, err
	}
	j.cells.setTotal(len(plan.Cells))
	// In coordinator mode the campaign gets one re-dispatch budget for
	// all its cells: every retry and hedge spends a unit, and exhaustion
	// degrades to local execution (never failure). Published on the job
	// so status views report budget_exhausted live.
	if s.fleet != nil {
		b := fleet.NewBudget(s.cfg.HedgeBudget)
		j.mu.Lock()
		j.budget = b
		j.mu.Unlock()
	}
	partials := make([][]byte, len(plan.Cells))
	err = parallel.ForEach(j.ctx, j.params.Workers, len(plan.Cells), func(ctx context.Context, i int) error {
		cell := &plan.Cells[i]
		key := resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine)
		// Fleet dispatch: in coordinator mode a missed cell is executed
		// on a worker, with retry/hedging absorbed inside DispatchBudget
		// so exactly one result ever comes back per miss — the Misses ==
		// Executions invariant is placement-independent. When dispatch
		// cannot produce a result (no live workers, budget exhausted,
		// every attempt failed), peer fill gets one shot — a worker's
		// tiers may still hold bytes the fleet already paid for — and
		// then the cell falls back to local execution: the fleet
		// accelerates campaigns, never gates them.
		var workerURL, placement string
		var fill func(context.Context) ([]byte, uint64, bool)
		if s.fleet != nil {
			fill = func(ctx context.Context) ([]byte, uint64, bool) {
				if resp, err := s.fleet.DispatchBudget(ctx, fleet.ExecuteRequest{
					Kind:      plan.Kind,
					Params:    j.params,
					Index:     i,
					CellID:    cell.ID,
					Key:       key,
					RequestID: j.requestID,
				}, j.budget); err == nil {
					workerURL, placement = resp.Worker, resp.Placement
					return resp.Body, resp.ExecNs, true
				}
				body, costNs, worker, ok := s.fleet.PeerFill(ctx, key)
				if ok {
					workerURL, placement = worker, "peer_fill"
				}
				return body, costNs, ok
			}
		}
		// The tiers file a fresh partial in memory and on disk the moment
		// it completes: a drain or cancel later in the campaign keeps this
		// cell's work, and the write-behind disk Put survives a process
		// death. A remote cell keeps the worker's measured cost, so
		// eviction still weighs simulation time rather than network time.
		// An executed cell collects its simulation stats apart and folds
		// them into the job's as one cell when it succeeds.
		l, err := s.cells.Resolve(ctx, key, fill, func(ctx context.Context) ([]byte, error) {
			stats := obs.NewCampaignStats()
			body, err := s.cfg.execCell(obs.WithCollector(ctx, stats), cell)
			if err == nil {
				j.stats.AddCell(stats)
			}
			return body, err
		})
		switch l.Source {
		case resultcache.Memory:
			s.metrics.cells.Hits.Inc()
		case resultcache.Disk:
			s.metrics.cells.DiskHits.Inc()
		default:
			s.metrics.cells.Misses.Inc()
			if err != nil {
				return err
			}
			s.metrics.cells.Executions.Inc()
			span(&s.metrics.cells.ExecNs, l.MissPath)
			// Engine-tier accounting: kinds without an engine choice always
			// simulate, so anything not explicitly analytic counts as sim.
			if cell.Engine == experiments.EngineAnalytic {
				s.metrics.cells.EngineAnalytic.Inc()
				span(&s.metrics.cells.EngineAnalyticNs, l.MissPath)
			} else {
				s.metrics.cells.EngineSim.Inc()
				span(&s.metrics.cells.EngineSimNs, l.MissPath)
			}
		}
		partials[i] = l.Body
		j.cells.recordCell(j.id, cell.ID, i, cacheLabel[l.Source], cell.Engine, workerURL, placement)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.fleet != nil && j.budget.Exhausted() {
		s.fleet.Stats.BudgetExhausted.Inc()
	}
	start := time.Now()
	res, err := plan.Merge(j.ctx, partials)
	if err != nil {
		return nil, err
	}
	body, err := report.CanonicalJSON(res)
	if err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	span(&s.metrics.cells.MergeNs, time.Since(start))
	return body, nil
}

// handleJobEvents streams a job's progress as NDJSON: one jobEvent line
// per completed cell, then the terminal event, then EOF. A stream opened
// after the job finished replays the recorded log — the stream is
// deterministic with respect to the job, not the connection.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	sent := 0
	emit := func(events []jobEvent) {
		for _, ev := range events[sent:] {
			enc.Encode(ev)
		}
		sent = len(events)
		if flusher != nil {
			flusher.Flush()
		}
	}
	for {
		events, changed := j.cells.snapshot()
		emit(events)
		select {
		case <-j.done:
			// The terminal event is recorded before done closes, so one
			// final snapshot drains everything.
			events, _ := j.cells.snapshot()
			emit(events)
			return
		default:
		}
		select {
		case <-changed:
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
}
