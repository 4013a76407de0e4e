package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/diskstore"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// WorkerConfig parameterizes a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL ("http://host:port").
	Coordinator string
	// Token is the fleet's shared secret; must match the coordinator's
	// -fleet-token or every registration is refused with 401. Empty
	// disables signing.
	Token string
	// Capacity is advertised to the coordinator as the max concurrent
	// execute requests this worker wants, each running its batch's cells
	// in order (<=0 lets the coordinator default it). The worker also
	// enforces it locally: execute requests beyond capacity are refused
	// with 429 so an overeager or skewed coordinator cannot pile work
	// past what was advertised.
	Capacity int
	// Cache and Store are the worker's local tiers, consulted before
	// execution and read by the coordinator via the cell-read endpoint;
	// either may be nil.
	Cache *resultcache.Cache
	Store *diskstore.Store
	// Heartbeat is the registration re-POST interval (default 2s).
	Heartbeat time.Duration
	// Client overrides the HTTP client used for heartbeats.
	Client *http.Client
	// Logf, when non-nil, receives registration failures (a worker keeps
	// retrying — the coordinator may simply not be up yet).
	Logf func(format string, args ...any)
}

// WorkerMetrics are the worker-side counters rendered as
// affinityd_fleet_worker_* at /metrics. Requests, Rejections and Errors
// count execute requests (batches); Executions, CacheHits and DiskHits
// count cells.
type WorkerMetrics struct {
	// Requests counts execute requests received.
	Requests obs.Counter
	// Executions counts cells this worker simulated to completion.
	Executions obs.Counter
	// CacheHits/DiskHits count dispatched cells served from the
	// worker's local memory cache / disk store.
	CacheHits obs.Counter
	DiskHits  obs.Counter
	// CellServes counts cell-read requests this worker answered from its
	// own tiers (the coordinator's peer fill).
	CellServes obs.Counter
	// AuthRejections counts fleet requests this worker refused with 401.
	AuthRejections obs.Counter
	// Rejections counts execute requests refused with 429 because the
	// worker was already at its advertised capacity.
	Rejections obs.Counter
	// Errors counts execute requests that failed (bad plan coordinate,
	// identity mismatch, execution error, or an abandoned batch).
	Errors obs.Counter
	// ExecNs is the local execution wall time per executed cell.
	ExecNs obs.Histogram
}

// Worker executes dispatched batches and keeps itself registered with
// the coordinator.
type Worker struct {
	cfg    WorkerConfig
	tiers  resultcache.Tiers
	client *http.Client
	auth   *authenticator

	// Stats holds the worker counters; read directly by /metrics.
	Stats WorkerMetrics

	mu        sync.Mutex
	advertise string

	inflight atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// NewWorker builds a Worker; Start begins the heartbeat loop once the
// advertised URL is known (after the listener binds).
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = defaultClient()
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Worker{
		cfg:    cfg,
		tiers:  resultcache.Tiers{Memory: cfg.Cache, Disk: cfg.Store},
		client: client,
		auth:   newAuthenticator(cfg.Token),
		ctx:    ctx,
		cancel: cancel,
	}
}

// RegisterHandlers mounts the worker's fleet endpoints: cell execution,
// and the cell-read endpoint that exposes the worker's own memory+disk
// tiers to the coordinator.
func (w *Worker) RegisterHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathExecute, w.handleExecute)
	mux.HandleFunc("GET "+PathCells+"{key}", w.handleCell)
}

// capacity is the worker's locally-enforced concurrent execute bound.
func (w *Worker) capacity() int64 {
	if w.cfg.Capacity > 0 {
		return int64(w.cfg.Capacity)
	}
	return defaultCapacity
}

// Start begins registering (and re-registering every heartbeat) with
// the coordinator, advertising the given base URL. The first
// registration is attempted synchronously so a worker that prints
// "joined" is already dispatchable; failures are retried in the
// background.
func (w *Worker) Start(advertise string) {
	w.mu.Lock()
	w.advertise = advertise
	w.mu.Unlock()
	w.register()
	w.wg.Add(1)
	go w.heartbeatLoop()
}

// Stop ends the heartbeat loop.
func (w *Worker) Stop() {
	w.cancel()
	w.wg.Wait()
}

func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	tick := time.NewTicker(w.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-w.ctx.Done():
			return
		case <-tick.C:
			w.register()
		}
	}
}

// register POSTs one signed registration/heartbeat, bounded by the
// heartbeat interval so a hung coordinator cannot back the loop up.
func (w *Worker) register() {
	w.mu.Lock()
	advertise := w.advertise
	w.mu.Unlock()
	body, err := json.Marshal(RegisterRequest{
		URL:           advertise,
		Capacity:      w.cfg.Capacity,
		EngineVersion: version.Engine,
	})
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(w.ctx, w.cfg.Heartbeat)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+PathRegister, bytes.NewReader(body))
	if err != nil {
		w.logf("fleet: register: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	w.auth.sign(req, body)
	resp, err := w.client.Do(req)
	if err != nil {
		w.logf("fleet: register with %s: %v", w.cfg.Coordinator, err)
		return
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		// 409 is engine-version skew: permanent until redeploy, but a
		// redeploy is exactly what fixes it, so keep heartbeating. 401 is
		// a token mismatch — same deal: fixing the flag and restarting is
		// the remedy, and the log line says which daemon to fix.
		w.logf("fleet: register with %s: status %d: %.200s", w.cfg.Coordinator, resp.StatusCode, msg)
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// handleExecute runs one dispatched batch. It builds and checks every
// cell before running any, so a batch with one bad coordinate is refused
// whole, then runs the cells one after another: local memory → local
// disk → execute. The worker never calls back to the coordinator — the
// coordinator dispatches only cells its own tiers missed. Whatever the
// source, each answered cell carries its canonical bytes and their
// provenance, in request order.
func (w *Worker) handleExecute(rw http.ResponseWriter, r *http.Request) {
	w.Stats.Requests.Inc()
	api.EchoRequestID(rw, r)
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBytes))
	if err != nil {
		w.Stats.Errors.Inc()
		api.WriteError(rw, http.StatusBadRequest, "invalid_request", "", fmt.Sprintf("read body: %v", err))
		return
	}
	if err := w.auth.verify(r, raw); err != nil {
		w.Stats.AuthRejections.Inc()
		writeAuthError(rw, err)
		return
	}
	var req ExecuteBatch
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		w.Stats.Errors.Inc()
		api.WriteError(rw, http.StatusBadRequest, "invalid_request", "", fmt.Sprintf("bad execute body: %v", err))
		return
	}
	if len(req.Cells) == 0 {
		w.Stats.Errors.Inc()
		api.WriteError(rw, http.StatusBadRequest, "invalid_param", "cells", "execute batch names no cells")
		return
	}
	// Enforce the advertised capacity locally: a worker is the authority
	// on its own concurrency, whatever the coordinator believes. The
	// Retry-After matches the coordinator's backoff scale — the refused
	// attempt retries elsewhere, and capacity frees within a batch's
	// execution time.
	if n := w.inflight.Add(1); n > w.capacity() {
		w.inflight.Add(-1)
		w.Stats.Rejections.Inc()
		rw.Header().Set("Retry-After", "1")
		api.WriteError(rw, http.StatusTooManyRequests, "over_capacity", "",
			fmt.Sprintf("worker at capacity (%d requests in flight)", w.capacity()))
		return
	}
	defer w.inflight.Add(-1)
	// Build only the dispatched cells: the rest of the plan is the
	// coordinator's business.
	cells := make([]*experiments.Cell, len(req.Cells))
	for i, bc := range req.Cells {
		cell, n, err := experiments.CellAt(req.Kind, req.Params, bc.Index)
		switch {
		case n > 0 && (bc.Index < 0 || bc.Index >= n):
			w.Stats.Errors.Inc()
			api.WriteError(rw, http.StatusBadRequest, "invalid_param", "index",
				fmt.Sprintf("cell index %d outside plan (%d cells)", bc.Index, n))
			return
		case err != nil:
			w.Stats.Errors.Inc()
			api.WriteError(rw, http.StatusBadRequest, "invalid_param", "params", fmt.Sprintf("cell plan: %v", err))
			return
		}
		if key := resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine); cell.ID != bc.CellID || key != bc.Key {
			// The two sides derived different plans from the same params —
			// engine-version skew or a protocol bug. Refusing is the only
			// safe answer: these bytes would be filed under the wrong key.
			w.Stats.Errors.Inc()
			api.WriteError(rw, http.StatusConflict, "plan_mismatch", "", fmt.Sprintf(
				"plan mismatch: computed cell %q key %.16s, dispatched %q %.16s", cell.ID, key, bc.CellID, bc.Key))
			return
		}
		cells[i] = cell
	}
	w.mu.Lock()
	advertise := w.advertise
	w.mu.Unlock()
	resp := BatchResponse{APIVersion: api.Version, Cells: make([]ExecuteResponse, len(cells))}
	for i, cell := range cells {
		if err := r.Context().Err(); err != nil {
			// The coordinator gave up on this attempt; nobody reads on.
			w.Stats.Errors.Inc()
			return
		}
		// Executed bytes land in both local tiers, so the store keeps them
		// across a restart, and a refused batch's finished cells are kept.
		l, err := w.tiers.Resolve(r.Context(), req.Cells[i].Key, nil, cell.RunBody)
		if err != nil {
			w.Stats.Errors.Inc()
			api.WriteError(rw, http.StatusInternalServerError, "internal", "", fmt.Sprintf("cell %s: %v", cell.ID, err))
			return
		}
		cr := ExecuteResponse{CellID: cell.ID, Key: req.Cells[i].Key, Worker: advertise, Engine: cell.Engine,
			Body: l.Body, ExecNs: l.CostNs}
		switch l.Source {
		case resultcache.Memory:
			w.Stats.CacheHits.Inc()
			cr.Source = "cache"
		case resultcache.Disk:
			w.Stats.DiskHits.Inc()
			cr.Source = "disk"
		default:
			w.Stats.Executions.Inc()
			w.Stats.ExecNs.Observe(l.CostNs)
			cr.Source = "executed"
		}
		resp.Cells[i] = cr
	}
	writeFleetJSON(rw, http.StatusOK, resp)
}

// handleCell serves the worker's own tiers to the coordinator, which
// reads here only for a cell whose batch returned nothing
// (Coordinator.PeerFill), so bytes this worker already computed are not
// computed again.
func (w *Worker) handleCell(rw http.ResponseWriter, r *http.Request) {
	api.EchoRequestID(rw, r)
	if err := w.auth.verify(r, nil); err != nil {
		w.Stats.AuthRejections.Inc()
		writeAuthError(rw, err)
		return
	}
	if l := w.tiers.Get(r.PathValue("key")); l.Source != resultcache.Miss {
		w.Stats.CellServes.Inc()
		serveCell(rw, l.Body, l.CostNs)
		return
	}
	api.WriteError(rw, http.StatusNotFound, "not_found", "", "cell not in this worker's tiers")
}

// serveCell writes a raw cell body with its exec-cost metadata.
func serveCell(w http.ResponseWriter, body []byte, costNs uint64) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(execCostHeader, strconv.FormatUint(costNs, 10))
	w.Write(body)
}
