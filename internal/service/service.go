// Package service is the serving layer of the repo: a long-running
// HTTP/JSON front end over the campaign registry
// (internal/experiments.Campaigns) with the four properties a
// production deployment needs and a batch CLI does not:
//
//   - Admission control. Jobs run on a fixed pool of worker goroutines
//     fed by a bounded queue; when the queue is full a request is
//     rejected immediately with 429 and a Retry-After hint, so overload
//     degrades into fast rejections rather than unbounded memory growth
//     and collapsing latency.
//   - Deduplication (singleflight). Identical requests that arrive while
//     the first is still running attach to the in-flight job instead of
//     enqueuing duplicate simulations.
//   - Memoization, at two granularities. Completed campaign bodies live
//     in a content-addressed LRU cache (internal/resultcache) keyed by
//     the canonical hash of (kind, normalized params, engine version).
//     Below that, every campaign executes as its cell plan
//     (internal/experiments.Cells): each cell — one coordinate of the
//     campaign's grid — is cached under its own content address the
//     moment it completes, so an overlapping or superset campaign
//     re-executes only the cells it has never seen, and a campaign
//     cancelled mid-flight resumes from its finished cells on
//     resubmission. Campaigns are deterministic and merges byte-exact,
//     so either cache serves bits identical to a fresh run. When
//     Config.Store is set, both caches sit on a persistent disk tier
//     (internal/diskstore): completed bodies and cells are written behind
//     to checksummed segment files and read through on a memory miss, so
//     a restart warm-starts from everything any earlier process finished.
//   - Cooperative cancellation. Every job carries a context; cancelling
//     it (client disconnect with no other waiters, DELETE /v1/jobs/{id},
//     or server shutdown) stops the campaign from scheduling new
//     simulation cells promptly.
//
// API (every /v1 JSON body carries "api_version"; non-2xx responses use
// the uniform {"api_version","error":{"code","message","field"}}
// envelope):
//
//	POST   /v1/campaigns        submit {kind, params, async}; sync by default
//	GET    /v1/campaigns        list campaign kinds with parameter schemas
//	GET    /v1/jobs             list jobs (?status=, ?kind=, limit, page_token)
//	GET    /v1/jobs/{id}        job status, incl. cell progress counters
//	GET    /v1/jobs/{id}/result completed job's body
//	GET    /v1/jobs/{id}/events NDJSON stream of per-cell progress events
//	GET    /v1/jobs/{id}/stats  job's simulation-counter decomposition
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/workers          fleet worker registry (?status=, limit, page_token)
//	GET    /v1/workers/{id}     one worker's detail: RTT summary, penalty, counters
//	GET    /healthz             liveness
//	GET    /metrics             Prometheus text exposition
//	GET    /debug/pprof/...     runtime profiles (Config.EnablePprof only)
//
// The X-Cache, X-Cache-Key, and X-Request-Id headers still accompany
// result bodies for compatibility, but header-only signaling is
// deprecated: job views and stream events mirror the cache disposition
// and request id in the JSON body, which is the supported surface.
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/diskstore"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// Runner executes one campaign as an opaque call. The server itself runs
// campaigns cell by cell through their plans; tests substitute
// controllable runners.
type Runner func(ctx context.Context, kind string, p experiments.CampaignParams) (any, error)

// Config parameterizes a Server. Zero values select the defaults noted on
// each field.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run (default 16).
	// Jobs already running do not count against it.
	QueueDepth int
	// JobWorkers is the number of campaigns run concurrently (default 2).
	// Each campaign additionally fans its cells out over CellWorkers.
	JobWorkers int
	// CacheBytes is the result cache's byte budget (default 64 MiB).
	CacheBytes int64
	// CellWorkers is the per-campaign cell concurrency applied when a
	// request leaves params.workers at 0 (0 = let the campaign use all
	// CPUs).
	CellWorkers int
	// DefaultSeed overrides the registry's default root seed for requests
	// that omit params.seed (0 = keep the registry default).
	DefaultSeed uint64
	// RetryAfter is the hint returned with 429 responses (default 2s).
	RetryAfter time.Duration
	// JobTTL bounds how long a terminal job's status and result stay
	// retrievable through /v1/jobs after it finishes (default 5m).
	// Expired ids return 404; the result body itself lives on in the
	// byte-budgeted result cache, so identical resubmissions still hit.
	JobTTL time.Duration
	// MaxJobs caps retained terminal jobs regardless of age (default
	// 256); the oldest-finished are evicted first. Together with JobTTL
	// it keeps the jobs map — and the result bodies it pins — bounded on
	// a long-running daemon.
	MaxJobs int
	// Runner substitutes the campaign executor (tests); nil uses the
	// experiments registry, executed cell by cell through the cell cache.
	// A non-nil Runner is opaque to the server, so cell-level caching and
	// progress events are disabled for it.
	Runner Runner
	// CellCache substitutes the per-cell result cache, letting several
	// servers — or a restarted one — share completed cells; nil builds a
	// private cache with the CacheBytes budget. Separate from the
	// campaign-body cache so cell traffic never evicts (or pollutes the
	// hit counters of) whole-campaign entries.
	CellCache *resultcache.Cache
	// Store is the persistent tier beneath both in-memory caches
	// (internal/diskstore): campaign bodies and cell results are written
	// behind on completion and read through (with promotion into the LRU
	// tier) on an in-memory miss, so a restarted daemon re-serves
	// everything it ever finished without re-simulating. nil disables
	// persistence. The server flushes the store's write-behind queue
	// during Shutdown; closing the store remains the owner's job.
	Store *diskstore.Store
	// Fleet, when non-nil, makes this server a fleet coordinator
	// (internal/fleet): campaign cells that miss both cache tiers are
	// dispatched over HTTP to registered workers — with bounded retry,
	// hedged re-dispatch of stragglers, and local-execution fallback —
	// and the coordinator's fleet endpoint (worker registration) is
	// mounted alongside /v1. A dispatch that returns nothing asks the
	// workers' tiers (Coordinator.PeerFill) before executing locally.
	Fleet *fleet.Coordinator
	// FleetWorker, when non-nil, mounts the worker-side cell execution
	// endpoint and renders its counters at /metrics; set by cmd/affinityd
	// in -join mode. A daemon can be a worker and still serve its own
	// /v1 traffic.
	FleetWorker *fleet.Worker
	// HedgeBudget caps the total retries + hedges one campaign may spend
	// across all its cells in coordinator mode (default 16; <0 means
	// unlimited). A campaign that exhausts it keeps completing — cells
	// fall back to local execution — and its job view reports
	// budget_exhausted so operators see which campaigns hit the cap.
	HedgeBudget int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (default
	// off: the profiling surface stays closed unless explicitly opened).
	EnablePprof bool
	// StatsWriter, when non-nil, receives each completed job's
	// response-time decomposition table (experiments.StatsReport).
	StatsWriter io.Writer
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 5 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.HedgeBudget == 0 {
		c.HedgeBudget = 16
	}
	if c.CellCache == nil {
		c.CellCache = resultcache.New(c.CacheBytes)
	}
	return c
}

// jobStatus is a job's lifecycle state.
type jobStatus string

const (
	statusQueued   jobStatus = "queued"
	statusRunning  jobStatus = "running"
	statusDone     jobStatus = "done"
	statusFailed   jobStatus = "failed"
	statusCanceled jobStatus = "canceled"
)

// job is one admitted campaign execution. Identical concurrent requests
// share one job (singleflight on the cache key).
type job struct {
	id     string
	kind   string
	key    string
	params experiments.CampaignParams
	// requestID is the X-Request-Id of the submission that created the
	// job, mirrored into views and stream events.
	requestID string
	// cells tracks cell-level progress and the job's event log; it has
	// its own lock and is safe to read at any lifecycle stage.
	cells *cellTracker
	// budget is the campaign's fleet re-dispatch budget (retries +
	// hedges); nil outside coordinator mode. Set under mu before the
	// first dispatch; its own state is atomic.
	budget *fleet.Budget

	ctx    context.Context
	cancel context.CancelFunc

	// stats collects the job's engine-level simulation counters; the
	// worker threads it to the campaign through the run context, so it
	// never enters the params — cache keys and result bodies are
	// untouched by instrumentation.
	stats *obs.CampaignStats

	// waiters counts synchronous requests blocked on this job; when the
	// last one disconnects the job is cancelled (nobody wants the bits).
	// Async submissions hold one permanent waiter so polling clients keep
	// their job alive.
	waiters atomic.Int64

	mu       sync.Mutex
	status   jobStatus
	body     []byte
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{}
}

// setStatus transitions the job under its lock; terminal states close
// done exactly once.
func (j *job) setTerminal(st jobStatus, body []byte, errMsg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == statusDone || j.status == statusFailed || j.status == statusCanceled {
		return false
	}
	j.status, j.body, j.errMsg, j.finished = st, body, errMsg, now
	// Record the terminal stream event before done closes: an events
	// reader woken by the close is then guaranteed to observe it on its
	// final snapshot.
	ev := jobEvent{Type: string(st), JobID: j.id, Cache: "miss", RequestID: j.requestID, Error: errMsg}
	if st == statusDone {
		ev.ResultURL = "/v1/jobs/" + j.id + "/result"
	}
	j.cells.recordTerminal(ev)
	close(j.done)
	return true
}

// view is a consistent snapshot for status responses.
func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		APIVersion: apiVersion,
		ID:         j.id,
		Kind:       j.kind,
		Status:     string(j.status),
		CacheKey:   j.key,
		// A job only exists for a fresh run — cache hits are served
		// inline without one — so its disposition is always "miss"; the
		// field mirrors the deprecated X-Cache header into the body.
		Cache:     "miss",
		Engine:    j.params.Engine,
		RequestID: j.requestID,
		Error:     j.errMsg,
		Created:   j.created.UTC().Format(time.RFC3339Nano),
		EventsURL: "/v1/jobs/" + j.id + "/events",
	}
	v.CellsTotal, v.CellsDone, v.CellsFromCache, v.CellsFromDisk = j.cells.counts()
	v.CellsRemote, v.Workers = j.cells.remoteCounts()
	v.BudgetExhausted = j.budget.Exhausted()
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.status == statusDone {
		v.ResultURL = "/v1/jobs/" + j.id + "/result"
	}
	return v
}

// jobView is the wire form of a job's status.
type jobView struct {
	APIVersion string `json:"api_version"`
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	Status     string `json:"status"`
	CacheKey   string `json:"cache_key"`
	// Cache mirrors the X-Cache disposition ("miss": jobs are fresh runs).
	Cache string `json:"cache,omitempty"`
	// Engine echoes the campaign's normalized engine tier ("sim",
	// "analytic", or "auto"); empty for kinds without an engine choice.
	Engine string `json:"engine,omitempty"`
	// RequestID mirrors the X-Request-Id of the submitting request.
	RequestID string `json:"request_id,omitempty"`
	Error     string `json:"error,omitempty"`
	Created   string `json:"created"`
	Started   string `json:"started,omitempty"`
	Finished  string `json:"finished,omitempty"`
	// Cell progress: total cells in the campaign's plan, completed so
	// far, and how many of those were satisfied from the cell cache.
	// All zero for jobs run through a custom Runner.
	CellsTotal     int `json:"cells_total"`
	CellsDone      int `json:"cells_done"`
	CellsFromCache int `json:"cells_from_cache"`
	CellsFromDisk  int `json:"cells_from_disk"`
	// CellsRemote counts cells executed by fleet workers, and Workers
	// attributes them by advertised worker URL; zero/absent outside
	// coordinator mode.
	CellsRemote int            `json:"cells_remote,omitempty"`
	Workers     map[string]int `json:"workers,omitempty"`
	// BudgetExhausted reports that the campaign spent its entire fleet
	// re-dispatch budget (-hedge-budget); later cells ran locally.
	BudgetExhausted bool   `json:"budget_exhausted,omitempty"`
	ResultURL       string `json:"result_url,omitempty"`
	EventsURL       string `json:"events_url,omitempty"`
}

// Server is the affinityd serving core, independent of any listener so
// tests can drive it through httptest or a real socket alike.
type Server struct {
	cfg     Config
	metrics *metrics
	mux     *http.ServeMux
	// bodies holds whole campaign results, cells per-cell partials, each
	// keyed by content address. Both share one disk tier (nil when
	// persistence is disabled).
	bodies, cells resultcache.Tiers
	// fleet is the coordinator-mode dispatcher; nil when this daemon
	// executes every cell itself.
	fleet *fleet.Coordinator
	// fleetWorker is the worker-mode execute endpoint; nil unless this
	// daemon joined a coordinator.
	fleetWorker *fleet.Worker

	mu       sync.Mutex
	draining bool
	queue    chan *job
	jobs     map[string]*job // by id, all ever admitted
	inflight map[string]*job // by cache key, queued or running only
	jobSeq   uint64
	reqSeq   atomic.Uint64 // X-Request-Id source

	baseCtx    context.Context
	baseCancel context.CancelFunc
	workerWG   sync.WaitGroup
	janitorWG  sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:         cfg,
		bodies:      resultcache.Tiers{Memory: resultcache.New(cfg.CacheBytes), Disk: cfg.Store},
		cells:       resultcache.Tiers{Memory: cfg.CellCache, Disk: cfg.Store},
		fleet:       cfg.Fleet,
		fleetWorker: cfg.FleetWorker,
		queue:       make(chan *job, cfg.QueueDepth),
		jobs:        make(map[string]*job),
		inflight:    make(map[string]*job),
		baseCtx:     ctx,
		baseCancel:  cancel,
	}
	s.metrics = newMetrics(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleListCampaigns)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stats", s.handleJobStats)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /v1/workers", s.handleListWorkers)
	s.mux.HandleFunc("GET /v1/workers/{id}", s.handleWorkerDetail)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.metrics.serve)
	if s.fleet != nil {
		s.fleet.RegisterHandlers(s.mux)
	}
	if s.fleetWorker != nil {
		s.fleetWorker.RegisterHandlers(s.mux)
	}
	if cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	for i := 0; i < cfg.JobWorkers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.janitorWG.Add(1)
	go s.janitor()
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the result cache (the smoke gate reads its counters).
func (s *Server) Cache() *resultcache.Cache { return s.bodies.Memory }

// campaignRequest is the POST /v1/campaigns body.
type campaignRequest struct {
	Kind   string                     `json:"kind"`
	Params experiments.CampaignParams `json:"params"`
	// Async requests 202 + a job id for polling instead of blocking for
	// the result body.
	Async bool `json:"async,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rid := fmt.Sprintf("r%08d", s.reqSeq.Add(1))
	w.Header().Set("X-Request-Id", rid)
	// A request landing between SIGTERM and the listener closing must get
	// a prompt 503 telling the client to drop the connection — not parse
	// work, not a queue slot, and never a wait on a job that shutdown is
	// about to cancel.
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("Connection", "close")
		api.WriteError(w, http.StatusServiceUnavailable, "draining", "", "server is shutting down")
		return
	}
	var req campaignRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid_request", "", fmt.Sprintf("bad request body: %v", err))
		return
	}
	camp, ok := experiments.CampaignByKind(req.Kind)
	if !ok {
		api.WriteError(w, http.StatusBadRequest, "unknown_kind", "kind", fmt.Sprintf("unknown campaign kind %q", req.Kind))
		return
	}
	if req.Params.Seed == 0 && s.cfg.DefaultSeed != 0 {
		req.Params.Seed = s.cfg.DefaultSeed
	}
	params, err := camp.Normalize(req.Params)
	if err != nil {
		apiParamError(w, err)
		return
	}
	if params.Workers == 0 {
		params.Workers = s.cfg.CellWorkers
	}
	key, err := cacheKey(req.Kind, params)
	if err != nil {
		api.WriteError(w, http.StatusInternalServerError, "internal", "", err.Error())
		return
	}
	s.metrics.submitted.Add(1)

	// Memoized result: serve the stored bytes verbatim. A disk hit is
	// CRC-verified bytes an earlier process paid for, promoted into the
	// memory tier — indistinguishable from a fresh run.
	l := s.bodies.Get(key)
	span(&s.metrics.spanCacheLookup, l.MemoryProbe)
	if s.bodies.Disk != nil && l.Source != resultcache.Memory {
		span(&s.metrics.spanStoreLookup, l.DiskProbe)
	}
	if l.Source != resultcache.Miss {
		writeBody(w, l.Body, cacheLabel[l.Source], key)
		return
	}

	admitStart := time.Now()
	j, admitted, err := s.admit(req.Kind, key, rid, params)
	span(&s.metrics.spanAdmit, time.Since(admitStart))
	if err != nil {
		switch err {
		case errDraining:
			w.Header().Set("Connection", "close")
			api.WriteError(w, http.StatusServiceUnavailable, "draining", "", "server is shutting down")
		case errQueueFull:
			s.metrics.rejected.Add(1)
			// Ceil to whole seconds, floor 1: a sub-second hint used to
			// round to "Retry-After: 0", which many clients treat as
			// "retry immediately" — exactly wrong under overload.
			ra := int((s.cfg.RetryAfter + time.Second - 1) / time.Second)
			if ra < 1 {
				ra = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(ra))
			api.WriteError(w, http.StatusTooManyRequests, "queue_full", "", "campaign queue is full; retry later")
		default:
			api.WriteError(w, http.StatusInternalServerError, "internal", "", err.Error())
		}
		return
	}
	if !admitted {
		s.metrics.deduped.Add(1)
	}

	// admit registered this request as a waiter while holding s.mu.
	if req.Async {
		// A polling client's waiter is permanent: abandoning the poll
		// URL must not cancel the job under other clients.
		api.WriteJSON(w, http.StatusAccepted, j.view())
		return
	}

	defer func() {
		// Detach under s.mu — the lock admit attaches under — so the
		// count reaching zero and the cancellation are one atomic step
		// no concurrent attach can split.
		s.mu.Lock()
		if j.waiters.Add(-1) == 0 {
			// Last interested client is gone; stop simulating.
			select {
			case <-j.done:
			default:
				j.cancel()
			}
		}
		s.mu.Unlock()
	}()
	select {
	case <-j.done:
	case <-r.Context().Done():
		return
	}
	j.mu.Lock()
	st, body, errMsg := j.status, j.body, j.errMsg
	j.mu.Unlock()
	switch st {
	case statusDone:
		writeBody(w, body, "miss", key)
	case statusCanceled:
		api.WriteError(w, http.StatusConflict, "job_canceled", "", "job canceled: "+errMsg)
	default:
		api.WriteError(w, http.StatusInternalServerError, "job_failed", "", errMsg)
	}
}

// cacheKey derives the content address of one normalized request.
// Workers is zeroed first: results are bitwise identical at any worker
// count, so concurrency must not fork the cache.
func cacheKey(kind string, params experiments.CampaignParams) (string, error) {
	params.Workers = 0
	canon, err := report.CanonicalJSON(params)
	if err != nil {
		return "", err
	}
	return resultcache.Key(kind, canon, version.Engine), nil
}

var (
	errDraining  = fmt.Errorf("service: draining")
	errQueueFull = fmt.Errorf("service: queue full")
)

// admit returns the in-flight job for key (singleflight) or enqueues a
// new one, registering the caller as a waiter while s.mu is held — the
// same lock detach takes — so an attach can never interleave with the
// previous last waiter's count-reaches-zero cancellation. admitted
// reports whether a new job was created.
func (s *Server) admit(kind, key, requestID string, params experiments.CampaignParams) (*job, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false, errDraining
	}
	s.reapLocked(time.Now())
	if j, ok := s.inflight[key]; ok {
		// A cancelled job (abandoned by its last waiter, DELETEd, or
		// caught at shutdown) can occupy the singleflight slot until a
		// worker reaps it. Attaching would surface someone else's 409;
		// release the slot and admit a fresh run instead. Done or failed
		// jobs remain attachable — their result is ready.
		j.mu.Lock()
		st := j.status
		j.mu.Unlock()
		dying := st == statusCanceled ||
			((st == statusQueued || st == statusRunning) && j.ctx.Err() != nil)
		if !dying {
			j.waiters.Add(1)
			return j, false, nil
		}
		delete(s.inflight, key)
	}
	s.jobSeq++
	j := &job{
		id:        fmt.Sprintf("j%08d", s.jobSeq),
		kind:      kind,
		key:       key,
		params:    params,
		requestID: requestID,
		cells:     newCellTracker(),
		stats:     obs.NewCampaignStats(),
		status:    statusQueued,
		created:   time.Now(),
		done:      make(chan struct{}),
	}
	j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	select {
	case s.queue <- j:
	default:
		j.cancel()
		return nil, false, errQueueFull
	}
	j.waiters.Add(1)
	s.jobs[j.id] = j
	s.inflight[key] = j
	return j, true, nil
}

// reapLocked evicts terminal jobs whose retention expired: anything
// finished more than JobTTL ago, plus the oldest-finished jobs beyond the
// MaxJobs cap. Queued and running jobs are never touched. Evicted ids
// return 404 afterwards, but the result itself stays in the
// content-addressed cache — resubmitting the identical request hits.
// Callers hold s.mu.
func (s *Server) reapLocked(now time.Time) {
	type terminal struct {
		id       string
		finished time.Time
	}
	var term []terminal
	for id, j := range s.jobs {
		j.mu.Lock()
		fin := j.finished
		j.mu.Unlock()
		if fin.IsZero() {
			continue // not terminal yet
		}
		if now.Sub(fin) > s.cfg.JobTTL {
			delete(s.jobs, id)
			s.metrics.reaped.Add(1)
			continue
		}
		term = append(term, terminal{id, fin})
	}
	if excess := len(term) - s.cfg.MaxJobs; excess > 0 {
		sort.Slice(term, func(i, k int) bool { return term[i].finished.Before(term[k].finished) })
		for _, t := range term[:excess] {
			delete(s.jobs, t.id)
			s.metrics.reaped.Add(1)
		}
	}
}

// janitor periodically reaps expired terminal jobs so an idle daemon's
// retention window still closes; exits when baseCtx is cancelled at
// shutdown.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	interval := s.cfg.JobTTL / 4
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
			s.mu.Lock()
			s.reapLocked(time.Now())
			s.mu.Unlock()
		}
	}
}

// finish records a job's terminal state and clears its singleflight slot.
func (s *Server) finish(j *job, st jobStatus, body []byte, errMsg string) {
	if !j.setTerminal(st, body, errMsg, time.Now()) {
		return
	}
	j.cancel() // release the context's resources
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
	switch st {
	case statusDone:
		s.metrics.completed.Add(1)
	case statusFailed:
		s.metrics.failed.Add(1)
	case statusCanceled:
		s.metrics.canceled.Add(1)
	}
}

// worker executes queued jobs until the queue closes at shutdown.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		// The queued→running transition is guarded: DELETE /v1/jobs/{id}
		// can finish a queued job concurrently with this dequeue, and
		// overwriting that terminal state would make the worker's own
		// finish close j.done a second time.
		j.mu.Lock()
		if j.status != statusQueued {
			j.mu.Unlock()
			continue
		}
		if j.ctx.Err() != nil {
			j.mu.Unlock()
			s.finish(j, statusCanceled, nil, "canceled while queued")
			continue
		}
		j.status = statusRunning
		j.started = time.Now()
		j.mu.Unlock()
		span(&s.metrics.spanQueueWait, j.started.Sub(j.created))
		s.metrics.inflight.Add(1)
		// The registry path runs the campaign cell by cell through the
		// cell cache; a custom Runner is opaque and runs monolithically.
		// Either way the collector rides the context, not the params: the
		// campaign attaches it to its run options, so stats flow out of
		// band and the result bytes stay identical to an uninstrumented
		// run.
		exec := func() ([]byte, error) {
			if s.cfg.Runner == nil {
				return s.runCells(j)
			}
			res, err := s.cfg.Runner(obs.WithCollector(j.ctx, j.stats), j.kind, j.params)
			if err != nil {
				return nil, err
			}
			body, err := report.CanonicalJSON(res)
			if err != nil {
				return nil, fmt.Errorf("encode result: %s", err)
			}
			return body, nil
		}
		body, err := exec()
		elapsed := time.Since(j.started)
		span(&s.metrics.spanExec, elapsed)
		s.metrics.inflight.Add(-1)
		switch {
		case j.ctx.Err() != nil:
			s.finish(j, statusCanceled, nil, j.ctx.Err().Error())
		case err != nil:
			s.finish(j, statusFailed, nil, err.Error())
		default:
			// The campaign's wall time is its cost metadata: both the
			// memory tier's Stats and the disk tier's bytes-per-simulated-
			// second eviction weigh the body by what it took to build. The
			// store Put is write-behind and never blocks this worker.
			s.bodies.Put(j.key, body, uint64(elapsed))
			s.metrics.observe(j.kind, elapsed)
			s.metrics.foldSim(j.stats)
			s.finish(j, statusDone, body, "")
			if s.cfg.StatsWriter != nil {
				t := experiments.StatsReport(j.stats)
				t.Title = fmt.Sprintf("%s — job %s (%s)", t.Title, j.id, j.kind)
				t.Write(s.cfg.StatsWriter)
			}
		}
	}
}

func (s *Server) handleListCampaigns(w http.ResponseWriter, r *http.Request) {
	type kindView struct {
		Kind        string                  `json:"kind"`
		Description string                  `json:"description"`
		Params      []experiments.ParamSpec `json:"params"`
	}
	var out []kindView
	for _, c := range experiments.Campaigns() {
		out = append(out, kindView{Kind: c.Kind, Description: c.Description, Params: c.ParamSchema()})
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"api_version":    apiVersion,
		"campaigns":      out,
		"engine_version": version.Engine,
	})
}

// validJobStatus reports whether st names a job lifecycle state.
func validJobStatus(st string) bool {
	switch jobStatus(st) {
	case statusQueued, statusRunning, statusDone, statusFailed, statusCanceled:
		return true
	}
	return false
}

// parseJobSeq extracts the numeric admission sequence from a job id
// ("j" + decimal digits, zero-padded for display). Pagination compares
// sequences numerically, never as strings: a lexical keyset silently
// breaks the moment the sequence outgrows its padding ("j100000000"
// sorts before "j99999999"), skipping or replaying entries.
func parseJobSeq(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'j' {
		return 0, false
	}
	seq, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// handleListJobs lists retained jobs with optional filters and keyset
// pagination. Ordering is stable and documented: ascending admission
// sequence (job ids are "j" + a zero-padded sequence number), so the
// order is admission order. page_token is the last id of the previous
// page; a page is full when limit (default 100, max 1000) views
// accumulate, and next_page_token is present iff more matching jobs
// remain.
//
// Token semantics under reaping: the listing resumes strictly after the
// token's admission position, whether or not that job still exists — a
// token naming a job the janitor has already evicted is still a valid
// position, so pagination never skips or replays survivors. A token
// that is not a job id at all (malformed) is a 400 invalid_param: it
// cannot denote a position.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	status := q.Get("status")
	if status != "" && !validJobStatus(status) {
		api.WriteError(w, http.StatusBadRequest, "invalid_param", "status",
			fmt.Sprintf("unknown status %q (want queued|running|done|failed|canceled)", status))
		return
	}
	kind := q.Get("kind")
	if kind != "" {
		if _, ok := experiments.CampaignByKind(kind); !ok {
			api.WriteError(w, http.StatusBadRequest, "invalid_param", "kind",
				fmt.Sprintf("unknown campaign kind %q", kind))
			return
		}
	}
	limit := 100
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 || n > 1000 {
			api.WriteError(w, http.StatusBadRequest, "invalid_param", "limit",
				fmt.Sprintf("limit %q outside [1,1000]", ls))
			return
		}
		limit = n
	}
	afterSeq := uint64(0)
	if token := q.Get("page_token"); token != "" {
		seq, ok := parseJobSeq(token)
		if !ok {
			api.WriteError(w, http.StatusBadRequest, "invalid_param", "page_token",
				fmt.Sprintf("malformed page token %q (want a job id)", token))
			return
		}
		afterSeq = seq
	}

	s.mu.Lock()
	views := make([]jobView, 0, len(s.jobs))
	seqs := make(map[string]uint64, len(s.jobs))
	for id, j := range s.jobs {
		if seq, ok := parseJobSeq(id); ok {
			seqs[id] = seq
			views = append(views, j.view())
		}
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, k int) bool { return seqs[views[i].ID] < seqs[views[k].ID] })

	page := make([]jobView, 0, limit)
	next := ""
	for _, v := range views {
		if seqs[v.ID] <= afterSeq {
			continue
		}
		if status != "" && v.Status != status {
			continue
		}
		if kind != "" && v.Kind != kind {
			continue
		}
		if len(page) == limit {
			next = page[limit-1].ID
			break
		}
		page = append(page, v)
	}
	resp := map[string]any{"api_version": apiVersion, "jobs": page}
	if next != "" {
		resp["next_page_token"] = next
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) jobByID(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		api.WriteError(w, http.StatusNotFound, "not_found", "", "no such job")
	}
	return j
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.jobByID(w, r); j != nil {
		api.WriteJSON(w, http.StatusOK, j.view())
	}
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	st, body, errMsg := j.status, j.body, j.errMsg
	j.mu.Unlock()
	switch st {
	case statusDone:
		writeBody(w, body, "job", j.key)
	case statusFailed:
		api.WriteError(w, http.StatusInternalServerError, "job_failed", "", errMsg)
	case statusCanceled:
		api.WriteError(w, http.StatusConflict, "job_canceled", "", "job canceled: "+errMsg)
	default:
		api.WriteError(w, http.StatusConflict, "job_not_finished", "", "job not finished: "+string(st))
	}
}

// handleJobStats serves a job's accumulated simulation counters — the
// engine-side decomposition (reallocations, P^A/P^NA charges, penalty
// time) that the result body deliberately omits so it stays bitwise
// identical to an uninstrumented run. Available at any lifecycle stage;
// a running job reports its progress so far.
func (s *Server) handleJobStats(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.mu.Lock()
	st := j.status
	j.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"api_version": apiVersion,
		"id":          j.id,
		"kind":        j.kind,
		"status":      string(st),
		"stats":       j.stats.Snapshot(),
	})
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(w, r)
	if j == nil {
		return
	}
	j.cancel()
	// A queued job can be finished synchronously; a running one will be
	// reaped by its worker when the campaign observes the cancellation.
	j.mu.Lock()
	queued := j.status == statusQueued
	j.mu.Unlock()
	if queued {
		s.finish(j, statusCanceled, nil, "canceled by request")
	}
	api.WriteJSON(w, http.StatusAccepted, j.view())
}

// validWorkerID reports whether id has the shape WorkerID mints: "w"
// followed by 12 hex digits.
func validWorkerID(id string) bool {
	if len(id) != 13 || id[0] != 'w' {
		return false
	}
	for i := 1; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleListWorkers surfaces fleet state: the registered (unexpired)
// workers when this daemon is a coordinator, or an empty listing with
// coordinator=false when it is not — the endpoint exists either way so
// clients can probe a daemon's role. The listing follows the same
// conventions as GET /v1/jobs: a ?status= filter (idle|busy, by
// in-flight count), limit (default 100, max 1000), and keyset
// pagination ordered by worker id with page_token = the last id of the
// previous page. A token that is not a worker id is 400 invalid_param;
// a token naming a worker that has since expired is still a valid
// position.
func (s *Server) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	status := q.Get("status")
	if status != "" && status != "idle" && status != "busy" {
		api.WriteError(w, http.StatusBadRequest, "invalid_param", "status",
			fmt.Sprintf("unknown status %q (want idle|busy)", status))
		return
	}
	limit := 100
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 || n > 1000 {
			api.WriteError(w, http.StatusBadRequest, "invalid_param", "limit",
				fmt.Sprintf("limit %q outside [1,1000]", ls))
			return
		}
		limit = n
	}
	after := ""
	if token := q.Get("page_token"); token != "" {
		if !validWorkerID(token) {
			api.WriteError(w, http.StatusBadRequest, "invalid_param", "page_token",
				fmt.Sprintf("malformed page token %q (want a worker id)", token))
			return
		}
		after = token
	}
	if s.fleet == nil {
		api.WriteJSON(w, http.StatusOK, map[string]any{
			"api_version": apiVersion,
			"coordinator": false,
			"workers":     []fleet.WorkerView{},
		})
		return
	}
	all := s.fleet.Workers() // sorted by id — the pagination keyset
	page := make([]fleet.WorkerView, 0, min(limit, len(all)))
	next := ""
	for _, v := range all {
		if v.ID <= after {
			continue
		}
		if status == "idle" && v.InFlight != 0 {
			continue
		}
		if status == "busy" && v.InFlight == 0 {
			continue
		}
		if len(page) == limit {
			next = page[limit-1].ID
			break
		}
		page = append(page, v)
	}
	resp := map[string]any{
		"api_version": apiVersion,
		"coordinator": true,
		"workers":     page,
	}
	if next != "" {
		resp["next_page_token"] = next
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleWorkerDetail serves one worker's placement signals — the RTT
// histogram summary and failure penalty behind the scorer — alongside
// its listing row. 404s outside coordinator mode (a non-coordinator has
// no workers) and for expired or unknown ids.
func (s *Server) handleWorkerDetail(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		api.WriteError(w, http.StatusNotFound, "not_found", "", "not a fleet coordinator")
		return
	}
	d, ok := s.fleet.WorkerByID(r.PathValue("id"))
	if !ok {
		api.WriteError(w, http.StatusNotFound, "not_found", "", "no such worker (expired workers drop from the registry)")
		return
	}
	api.WriteJSON(w, http.StatusOK, d)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	code := http.StatusOK
	if draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, code, map[string]string{
		"status":         status,
		"engine_version": version.Engine,
		"git_sha":        version.GitSHA(),
	})
}

// Shutdown gracefully stops the server core: new submissions are refused,
// queued jobs are cancelled, and in-flight jobs drain to completion. If
// ctx expires first, in-flight jobs are cancelled too and ctx's error is
// returned. The HTTP listener (if any) must be shut down by the caller —
// typically http.Server.Shutdown after this returns, so final status
// polls still get answers while the core drains.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	var queued []*job
	if !s.draining {
		s.draining = true
		// Pull everything still queued off the channel, then close it to
		// release the workers once in-flight jobs finish.
	drain:
		for {
			select {
			case j := <-s.queue:
				queued = append(queued, j)
			default:
				break drain
			}
		}
		close(s.queue)
	}
	s.mu.Unlock()
	for _, j := range queued {
		j.cancel()
		s.finish(j, statusCanceled, nil, "canceled at shutdown")
	}

	drained := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(drained)
	}()
	stop := func() {
		s.baseCancel()
		s.janitorWG.Wait()
	}
	select {
	case <-drained:
		stop()
		// The drain contract includes durability: every result a finished
		// job acknowledged into the store's write-behind queue is flushed
		// and the active segment fsynced before Shutdown returns, so a
		// SIGTERM never loses completed work.
		return s.syncStore(ctx)
	case <-ctx.Done():
		stop()
		<-drained
		s.syncStore(ctx) // best effort under the expired deadline
		return ctx.Err()
	}
}

// syncStore flushes the persistent tier's write-behind queue, bounded by
// ctx. A nil store (persistence disabled) is a no-op.
func (s *Server) syncStore(ctx context.Context) error {
	if s.cells.Disk == nil {
		return nil
	}
	return s.cells.Disk.Sync(ctx)
}

// cacheLabel is the X-Cache value, and the cell event's cache field, of
// each lookup source: "hit" (memory tier), "disk", or "miss".
var cacheLabel = [...]string{resultcache.Miss: "miss", resultcache.Memory: "hit", resultcache.Disk: "disk", resultcache.Filled: "miss", resultcache.Executed: "miss"}

// writeBody serves a campaign result body. source labels how it was
// obtained: "hit" (result cache), "disk" (persistent store, promoted on
// the way out), "miss" (freshly simulated), "job" (polled result
// endpoint).
func writeBody(w http.ResponseWriter, body []byte, source, key string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", source)
	w.Header().Set("X-Cache-Key", key)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
