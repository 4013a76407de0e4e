package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// ErrNoWorkers reports that a dispatch found no live worker with spare
// capacity; the caller executes the cell locally.
var ErrNoWorkers = errors.New("fleet: no live workers")

// ErrBudgetExhausted reports that the campaign's retry+hedge budget ran
// out before any attempt succeeded; the caller executes the cell
// locally.
var ErrBudgetExhausted = errors.New("fleet: re-dispatch budget exhausted")

// Config parameterizes a Coordinator. Zero values select the defaults
// noted per field.
type Config struct {
	// Cache is not read: the coordinator serves no cell reads, and the
	// service that dispatches through it owns the cell tiers. It stays
	// so callers that set it keep compiling.
	//
	// Deprecated: set service.Config.CellCache instead.
	Cache *resultcache.Cache
	// Token is the fleet's shared secret (-fleet-token). Non-empty
	// enables HMAC authentication on every fleet request, inbound and
	// outbound (auth.go); empty keeps the open trusted-network mode.
	Token string
	// WorkerTTL expires a worker that has not heartbeated (default 10s).
	WorkerTTL time.Duration
	// HedgeDelay is how long a dispatch waits on an attempt before
	// re-issuing the cell to another worker (default 1s). The first
	// valid result wins; the straggler's is discarded.
	HedgeDelay time.Duration
	// Backoff is the pause before relaunching after a failed attempt
	// (default 50ms).
	Backoff time.Duration
	// Client overrides the HTTP client used for dispatch.
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 10 * time.Second
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	return c
}

const (
	// maxAttempts bounds attempts per cell across retries and hedges.
	// Each attempt targets a distinct worker.
	maxAttempts = 3
	// defaultCapacity is assumed for workers that register without one,
	// and enforced by a worker started without one.
	defaultCapacity = 4
	// peerFillFanout caps how many workers one PeerFill probes.
	peerFillFanout = 3
	// peerFillTimeout bounds each worker PeerFill probes: the read is an
	// optimization, so a slow tier must not stall the cell past what
	// executing it would cost.
	peerFillTimeout = 500 * time.Millisecond
)

// Metrics are the coordinator's fleet counters, written lock-free on
// the dispatch path and rendered as affinityd_fleet_* at /metrics.
type Metrics struct {
	// Dispatches counts attempts launched (first tries, retries, and
	// hedges all included).
	Dispatches obs.Counter
	// RemoteCells counts DispatchBudget calls resolved by a worker's result.
	RemoteCells obs.Counter
	// Retries counts attempts relaunched after a failed one.
	Retries obs.Counter
	// Hedges counts attempts launched by the straggler timer while an
	// earlier attempt was still in flight.
	Hedges obs.Counter
	// HedgeWins counts dispatches whose winning result came from a
	// retry or hedge rather than the first attempt.
	HedgeWins obs.Counter
	// Duplicates counts valid results that arrived after a winner and
	// were discarded by cell key — the at-least-once overshoot.
	Duplicates obs.Counter
	// DuplicateMismatches counts the duplicates whose cell body differs
	// from the winner's. Cells are deterministic, so any mismatch is a
	// worker computing a different answer for the same key.
	DuplicateMismatches obs.Counter
	// Failures counts attempts that returned an error (connection
	// failure, non-200, or an identity mismatch).
	Failures obs.Counter
	// Fallbacks counts dispatches that returned no result, sending the
	// cell to local execution.
	Fallbacks obs.Counter
	// Registrations counts new workers; heartbeats of a known worker do
	// not count.
	Registrations obs.Counter
	// AuthRejections counts fleet requests refused with 401 (missing,
	// garbled, or stale signature).
	AuthRejections obs.Counter
	// Expirations counts workers dropped — heartbeat TTL expiry or a
	// connection-level dispatch failure (they re-register if alive).
	Expirations obs.Counter
	// WorkerFills counts PeerFill calls a worker's tiers answered: cells
	// the coordinator took from a worker after a dispatch returned
	// nothing.
	WorkerFills obs.Counter
	// PlacementDecisions counts scored placement decisions (one per
	// launched attempt).
	PlacementDecisions obs.Counter
	// PlacementCapacitySkips counts candidate workers passed over
	// because every capacity slot was occupied.
	PlacementCapacitySkips obs.Counter
	// PlacementPenalized counts decisions made while at least one
	// candidate carried a decaying failure penalty — the hysteresis
	// actively steering load.
	PlacementPenalized obs.Counter
	// BudgetExhausted counts campaigns whose retry+hedge budget ran dry
	// (incremented by the service, once per campaign).
	BudgetExhausted obs.Counter
	// RTTNs is the round-trip time of successful dispatch attempts.
	RTTNs obs.Histogram
}

// workerState is one registered worker; all fields are guarded by
// Coordinator.mu except rttHist (internally atomic).
type workerState struct {
	id            string
	url           string
	capacity      int
	engineVersion string
	registered    time.Time
	lastSeen      time.Time
	inflight      int
	dispatched    uint64
	succeeded     uint64
	failures      uint64
	// Placement signals (placement.go): RTT EWMA in nanoseconds, and
	// the decaying failure penalty with its last-update instant.
	rttEWMANs float64
	penalty   float64
	penaltyAt time.Time
	rttHist   *obs.Histogram
}

// WorkerID derives a worker's stable /v1/workers identity from its
// advertised URL: "w" + the first 12 hex digits of its SHA-256. Stable
// across re-registrations and coordinator restarts.
func WorkerID(url string) string {
	sum := sha256.Sum256([]byte(url))
	return "w" + hex.EncodeToString(sum[:6])
}

// Coordinator owns the fleet's worker registry and cell dispatch.
type Coordinator struct {
	cfg    Config
	client *http.Client
	auth   *authenticator

	// Stats holds the dispatch counters; read directly by /metrics.
	Stats Metrics

	mu      sync.Mutex
	workers map[string]*workerState // by advertised URL
}

// NewCoordinator builds a Coordinator.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	client := cfg.Client
	if client == nil {
		client = defaultClient()
	}
	return &Coordinator{
		cfg:     cfg,
		client:  client,
		auth:    newAuthenticator(cfg.Token),
		workers: make(map[string]*workerState),
	}
}

// RegisterHandlers mounts the coordinator's one fleet endpoint,
// registration. Fleet traffic is otherwise one-way: the coordinator
// calls its workers, and a worker never calls back.
func (c *Coordinator) RegisterHandlers(mux *http.ServeMux) {
	mux.HandleFunc("POST "+PathRegister, c.handleRegister)
}

// readVerified reads and authenticates a fleet request's body. On
// failure it writes the 401 envelope and returns false.
func (c *Coordinator) readVerified(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid_request", "", fmt.Sprintf("read body: %v", err))
		return nil, false
	}
	if err := c.auth.verify(r, body); err != nil {
		c.Stats.AuthRejections.Inc()
		writeAuthError(w, err)
		return nil, false
	}
	return body, true
}

// handleRegister upserts a worker. Registration doubles as heartbeat.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	api.EchoRequestID(w, r)
	body, ok := c.readVerified(w, r)
	if !ok {
		return
	}
	var req RegisterRequest
	if err := json.Unmarshal(body, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "invalid_request", "", fmt.Sprintf("bad register body: %v", err))
		return
	}
	if req.URL == "" {
		api.WriteError(w, http.StatusBadRequest, "invalid_param", "url", "register: url required")
		return
	}
	if req.EngineVersion != version.Engine {
		// A skewed worker's cache keys would never match ours; refusing
		// here keeps wrong-version results out by construction. The
		// Retry-After invites re-registration: a redeploy is exactly what
		// fixes the skew, and the worker keeps heartbeating meanwhile.
		w.Header().Set("Retry-After", "30")
		api.WriteError(w, http.StatusConflict, "engine_skew", "engine_version", fmt.Sprintf(
			"engine version %q does not match coordinator %q", req.EngineVersion, version.Engine))
		return
	}
	capacity := req.Capacity
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	now := time.Now()
	c.mu.Lock()
	ws := c.workers[req.URL]
	if ws == nil {
		ws = &workerState{id: WorkerID(req.URL), url: req.URL, registered: now, rttHist: &obs.Histogram{}}
		c.workers[req.URL] = ws
		c.Stats.Registrations.Inc()
	}
	ws.capacity = capacity
	ws.engineVersion = req.EngineVersion
	ws.lastSeen = now
	id := ws.id
	c.mu.Unlock()
	writeFleetJSON(w, http.StatusOK, RegisterResponse{
		APIVersion:   api.Version,
		OK:           true,
		ID:           id,
		HeartbeatSec: (c.cfg.WorkerTTL / 3).Seconds(),
	})
}

// PeerFill asks the live workers' tiers for a cell body, for a service
// whose dispatch returned nothing: a worker may still hold bytes the
// coordinator lost to a restart or an eviction. It is the only read of
// another member's tiers in the fleet. Each probe is bounded by
// peerFillTimeout. Returns the serving worker's URL alongside the body.
func (c *Coordinator) PeerFill(ctx context.Context, key string) (body []byte, costNs uint64, worker string, ok bool) {
	now := time.Now()
	c.mu.Lock()
	c.expireLocked(now)
	type cand struct {
		url   string
		score float64
	}
	cands := make([]cand, 0, len(c.workers))
	minRTT := 0.0
	for _, ws := range c.workers {
		if ws.rttEWMANs > 0 && (minRTT == 0 || ws.rttEWMANs < minRTT) {
			minRTT = ws.rttEWMANs
		}
	}
	for _, ws := range c.workers {
		cands = append(cands, cand{url: ws.url, score: ws.score(now, minRTT)})
	}
	c.mu.Unlock()
	// Probe the best-scored workers first: a read costs one capacity-free
	// GET, so score order just minimizes expected latency.
	sort.Slice(cands, func(i, k int) bool {
		if cands[i].score != cands[k].score {
			return cands[i].score < cands[k].score
		}
		return cands[i].url < cands[k].url
	})
	if len(cands) > peerFillFanout {
		cands = cands[:peerFillFanout]
	}
	for _, cd := range cands {
		if ctx.Err() != nil {
			return nil, 0, "", false
		}
		fctx, cancel := context.WithTimeout(ctx, peerFillTimeout)
		body, costNs, ok := c.fetchCell(fctx, cd.url, key)
		cancel()
		if ok {
			c.Stats.WorkerFills.Inc()
			return body, costNs, cd.url, true
		}
	}
	return nil, 0, "", false
}

// fetchCell GETs a worker's cell-read endpoint, signed. Any failure —
// transport, non-200, an empty or malformed body — is a miss.
func (c *Coordinator) fetchCell(ctx context.Context, base, key string) ([]byte, uint64, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+PathCells+url.PathEscape(key), nil)
	if err != nil {
		return nil, 0, false
	}
	c.auth.sign(req, nil)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, 0, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil || len(body) == 0 || !json.Valid(body) {
		return nil, 0, false
	}
	costNs, _ := strconv.ParseUint(resp.Header.Get(execCostHeader), 10, 64)
	return body, costNs, true
}

// WorkerView is the /v1/workers wire form of one registered worker.
type WorkerView struct {
	ID            string `json:"id"`
	URL           string `json:"url"`
	Capacity      int    `json:"capacity"`
	EngineVersion string `json:"engine_version"`
	Registered    string `json:"registered"`
	LastSeen      string `json:"last_seen"`
	InFlight      int    `json:"inflight"`
	// Dispatched counts attempts sent to this worker; Succeeded the
	// attempts that returned a valid result; Failures the attempts that
	// failed. An attempt cancelled by its dispatch counts in neither.
	Dispatched uint64 `json:"dispatched"`
	Succeeded  uint64 `json:"succeeded"`
	Failures   uint64 `json:"failures"`
}

// WorkerDetail is the GET /v1/workers/{id} wire form: the listing row
// plus the placement signals behind the scorer — the RTT histogram
// summary and the decaying failure penalty.
type WorkerDetail struct {
	APIVersion string `json:"api_version"`
	WorkerView
	// FailurePenalty is the decayed hysteresis penalty at snapshot time
	// (0 = fully recovered).
	FailurePenalty float64 `json:"failure_penalty"`
	// RTTMeanMs is the EWMA the scorer uses; the percentiles summarize
	// the full per-worker histogram (log2 buckets, so upper bounds
	// within 2×).
	RTTMeanMs float64 `json:"rtt_mean_ms"`
	RTTCount  uint64  `json:"rtt_count"`
	RTTP50Ms  float64 `json:"rtt_p50_ms"`
	RTTP90Ms  float64 `json:"rtt_p90_ms"`
	RTTP99Ms  float64 `json:"rtt_p99_ms"`
}

func (ws *workerState) view() WorkerView {
	return WorkerView{
		ID:            ws.id,
		URL:           ws.url,
		Capacity:      ws.capacity,
		EngineVersion: ws.engineVersion,
		Registered:    ws.registered.UTC().Format(time.RFC3339Nano),
		LastSeen:      ws.lastSeen.UTC().Format(time.RFC3339Nano),
		InFlight:      ws.inflight,
		Dispatched:    ws.dispatched,
		Succeeded:     ws.succeeded,
		Failures:      ws.failures,
	}
}

// Workers snapshots the live registry (expired entries pruned), sorted
// by ID — the keyset /v1/workers paginates over.
func (c *Coordinator) Workers() []WorkerView {
	now := time.Now()
	c.mu.Lock()
	c.expireLocked(now)
	out := make([]WorkerView, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, ws.view())
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// WorkerByID returns the detail view of one live worker.
func (c *Coordinator) WorkerByID(id string) (WorkerDetail, bool) {
	now := time.Now()
	c.mu.Lock()
	c.expireLocked(now)
	var found *workerState
	for _, ws := range c.workers {
		if ws.id == id {
			found = ws
			break
		}
	}
	if found == nil {
		c.mu.Unlock()
		return WorkerDetail{}, false
	}
	d := WorkerDetail{
		APIVersion:     api.Version,
		WorkerView:     found.view(),
		FailurePenalty: found.failurePenaltyAt(now),
		RTTMeanMs:      found.rttEWMANs / 1e6,
	}
	hist := found.rttHist
	c.mu.Unlock()
	snap := hist.Snapshot()
	d.RTTCount = snap.Count
	d.RTTP50Ms = float64(histPercentile(snap, 50)) / 1e6
	d.RTTP90Ms = float64(histPercentile(snap, 90)) / 1e6
	d.RTTP99Ms = float64(histPercentile(snap, 99)) / 1e6
	return d, true
}

// LiveWorkers returns the number of unexpired workers (the
// affinityd_fleet_workers gauge).
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	return len(c.workers)
}

// expireLocked drops workers whose heartbeats stopped. Callers hold
// c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for url, ws := range c.workers {
		if now.Sub(ws.lastSeen) > c.cfg.WorkerTTL {
			delete(c.workers, url)
			c.Stats.Expirations.Inc()
		}
	}
}

// pick reserves one unit of capacity on the best-scored live worker not
// yet tried for this cell (placement.go). Returns "" when no worker
// qualifies, else the worker's URL and the rendered placement decision
// for event attribution.
func (c *Coordinator) pick(tried map[string]bool) (string, string) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	// First pass: the minimum RTT EWMA among eligible candidates
	// normalizes the scorer's rtt term.
	minRTT := 0.0
	for _, ws := range c.workers {
		if tried[ws.url] || ws.inflight >= ws.capacity {
			continue
		}
		if ws.rttEWMANs > 0 && (minRTT == 0 || ws.rttEWMANs < minRTT) {
			minRTT = ws.rttEWMANs
		}
	}
	var best *workerState
	bestScore := 0.0
	penalized := false
	for _, ws := range c.workers {
		if tried[ws.url] {
			continue
		}
		if ws.inflight >= ws.capacity {
			c.Stats.PlacementCapacitySkips.Inc()
			continue
		}
		if ws.failurePenaltyAt(now) > 0 {
			penalized = true
		}
		s := ws.score(now, minRTT)
		// Lower score wins; URL order breaks ties deterministically.
		if best == nil || s < bestScore || (s == bestScore && ws.url < best.url) {
			best, bestScore = ws, s
		}
	}
	if best == nil {
		return "", ""
	}
	c.Stats.PlacementDecisions.Inc()
	if penalized {
		c.Stats.PlacementPenalized.Inc()
	}
	placement := placementString(bestScore, best.inflight, best.capacity,
		best.rttEWMANs, best.failurePenaltyAt(now))
	best.inflight++
	best.dispatched++
	return best.url, placement
}

// attemptEnd is how an attempt left its worker, for release.
type attemptEnd int

const (
	// served: a valid result. Counts as a heartbeat and an RTT sample.
	served attemptEnd = iota
	// refused: a bad status, body or identity. Adds to the worker's
	// decaying placement penalty, deprioritizing without dropping.
	refused
	// unreachable: a connection-level failure. Drops the worker — it
	// re-registers on its next heartbeat if it is actually alive — so a
	// killed worker stops receiving dispatches after one failed attempt
	// instead of lingering until TTL expiry.
	unreachable
	// cancelled: the dispatch's context ended mid-attempt (a hedge still
	// in flight when its campaign finished). The worker did nothing
	// wrong, so only its capacity unit is returned.
	cancelled
)

// release returns a worker's capacity unit after an attempt, recording
// how it ended.
func (c *Coordinator) release(url string, rtt time.Duration, end attemptEnd) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[url]
	if ws == nil {
		return
	}
	ws.inflight--
	switch end {
	case served:
		ws.succeeded++
		ws.lastSeen = now // a served cell is as good as a heartbeat
		if rtt > 0 {
			ws.observeRTT(rtt)
		}
	case refused:
		ws.failures++
		ws.addFailure(now)
	case unreachable:
		ws.failures++
		ws.addFailure(now)
		delete(c.workers, url)
		c.Stats.Expirations.Inc()
	}
}

// attemptOutcome is one dispatch attempt's result.
type attemptOutcome struct {
	resp      *ExecuteResponse
	err       error
	attempt   int    // 1-based launch order
	placement string // the scored decision that launched it
}

// DispatchBudget executes one cell on the fleet: bounded retry with
// backoff on failure, hedged re-dispatch of stragglers after
// HedgeDelay, first valid result wins. Exactly one response is ever
// returned per call — late duplicates are drained and counted, never
// delivered — so the caller's one-result-per-miss accounting (misses ==
// execution attempts) holds no matter how the race resolves. Every
// retry and hedge beyond the first attempt spends one unit of budget
// (nil = unlimited); when the budget is dry the attempt is simply not
// launched. A non-nil error (ErrNoWorkers, ErrBudgetExhausted, every
// attempt failed, or ctx cancelled) means the caller should execute the
// cell locally.
func (c *Coordinator) DispatchBudget(ctx context.Context, req ExecuteRequest, budget *Budget) (*ExecuteResponse, error) {
	tried := make(map[string]bool, maxAttempts)
	ch := make(chan attemptOutcome, maxAttempts)
	launched := 0
	launch := func() bool {
		if launched >= maxAttempts {
			return false
		}
		url, placement := c.pick(tried)
		if url == "" {
			return false
		}
		tried[url] = true
		launched++
		attempt := launched
		c.Stats.Dispatches.Inc()
		go func() {
			resp, err := c.execute(ctx, url, req)
			ch <- attemptOutcome{resp: resp, err: err, attempt: attempt, placement: placement}
		}()
		return true
	}
	if !launch() {
		c.Stats.Fallbacks.Inc()
		return nil, ErrNoWorkers
	}
	hedge := time.NewTimer(c.cfg.HedgeDelay)
	defer hedge.Stop()
	outstanding := 1
	var lastErr error
	for {
		select {
		case out := <-ch:
			outstanding--
			if out.err == nil {
				c.Stats.RemoteCells.Inc()
				if out.attempt > 1 {
					c.Stats.HedgeWins.Inc()
				}
				if outstanding > 0 {
					go c.drainLate(ch, outstanding, out.resp.Body)
				}
				out.resp.Placement = out.placement
				return out.resp, nil
			}
			c.Stats.Failures.Inc()
			lastErr = out.err
			if launched < maxAttempts {
				// Brief pause so a flapping fleet doesn't spin; the
				// context still cancels promptly.
				select {
				case <-time.After(c.cfg.Backoff):
				case <-ctx.Done():
					c.abandon(ch, outstanding)
					return nil, ctx.Err()
				}
				// A retry is re-dispatch overshoot: it spends budget. When
				// the campaign's budget is dry the cell stops retrying and
				// (if nothing is still in flight) falls back locally.
				if budget.TrySpend() {
					if launch() {
						c.Stats.Retries.Inc()
						outstanding++
						continue
					}
				} else if outstanding == 0 {
					c.Stats.Fallbacks.Inc()
					return nil, ErrBudgetExhausted
				}
			}
			if outstanding == 0 {
				c.Stats.Fallbacks.Inc()
				return nil, lastErr
			}
		case <-hedge.C:
			// The attempt is straggling: re-issue the cell elsewhere and
			// race the two. Determinism makes either answer correct. A
			// hedge spends budget like a retry; once dry, the straggler
			// simply races on alone.
			if budget.TrySpend() && launch() {
				c.Stats.Hedges.Inc()
				outstanding++
			}
		case <-ctx.Done():
			c.abandon(ch, outstanding)
			return nil, ctx.Err()
		}
	}
}

// abandon drains outstanding attempts in the background after the
// dispatch stops caring, counting the fallback.
func (c *Coordinator) abandon(ch chan attemptOutcome, outstanding int) {
	c.Stats.Fallbacks.Inc()
	if outstanding > 0 {
		go c.drainLate(ch, outstanding, nil)
	}
}

// drainLate consumes attempts that finished after a winner (or after
// abandonment, when winner is nil): valid duplicates are counted and
// discarded — never folded into stats or a merge — after their body is
// checked against the winner's, and late failures are counted as
// failures.
func (c *Coordinator) drainLate(ch chan attemptOutcome, n int, winner json.RawMessage) {
	for i := 0; i < n; i++ {
		out := <-ch
		if out.err == nil {
			c.Stats.Duplicates.Inc()
			if winner != nil && !bytes.Equal(out.resp.Body, winner) {
				c.Stats.DuplicateMismatches.Inc()
			}
		} else {
			c.Stats.Failures.Inc()
		}
	}
}

// execute runs one HTTP attempt against one worker and releases the
// worker's capacity unit with the attempt's outcome. Any error, a
// cancelled attempt's included, is an attempt failure, never a result.
func (c *Coordinator) execute(ctx context.Context, workerURL string, req ExecuteRequest) (*ExecuteResponse, error) {
	start := time.Now()
	resp, end, err := c.post(ctx, workerURL, req)
	if err != nil && ctx.Err() != nil {
		end = cancelled
	}
	rtt := time.Since(start)
	c.release(workerURL, rtt, end)
	if end == served {
		c.Stats.RTTNs.Observe(uint64(rtt))
	}
	return resp, err
}

// post sends the execute request and validates the response's
// identity: the returned key and cell id must echo the request, and the
// body must be non-empty JSON.
func (c *Coordinator) post(ctx context.Context, workerURL string, req ExecuteRequest) (*ExecuteResponse, attemptEnd, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, refused, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+PathExecute, bytes.NewReader(payload))
	if err != nil {
		return nil, refused, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.RequestID != "" {
		hreq.Header.Set(api.RequestIDHeader, req.RequestID)
	}
	c.auth.sign(hreq, payload)
	hresp, err := c.client.Do(hreq)
	if err != nil {
		// Connection-level failure: the worker is unreachable (killed,
		// crashed, partitioned). Drop it now rather than redispatching
		// into the hole until TTL expiry.
		return nil, unreachable, fmt.Errorf("fleet: worker %s: %w", workerURL, err)
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		return nil, unreachable, fmt.Errorf("fleet: worker %s: read: %w", workerURL, err)
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, refused, fmt.Errorf("fleet: worker %s: status %d: %.200s", workerURL, hresp.StatusCode, body)
	}
	var resp ExecuteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, refused, fmt.Errorf("fleet: worker %s: bad response: %w", workerURL, err)
	}
	if resp.Key != req.Key || resp.CellID != req.CellID || len(resp.Body) == 0 || !json.Valid(resp.Body) {
		return nil, refused, fmt.Errorf("fleet: worker %s: identity mismatch (cell %q key %.16q)", workerURL, resp.CellID, resp.Key)
	}
	return &resp, served, nil
}
