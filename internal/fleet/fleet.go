// Package fleet turns a set of affinityd processes into one logical
// campaign executor. One daemon runs as the coordinator: it owns the
// job queue, the two-tier result cache (memory LRU + disk store), and
// the deterministic Merge. Any number of daemons join as workers: they
// register with the coordinator, heartbeat, and execute campaign cells
// on demand.
//
// The unit of caching is the cell (internal/experiments.Cells):
// content-addressed, individually cacheable, and deterministic, so a
// cell can execute on any worker — or twice on two workers — and the
// bytes are identical. The unit of dispatch is a batch of one
// campaign's cells: the coordinator deals a campaign's misses
// round-robin into as many batches as the campaign runs cells at once,
// and each batch is one POST /v1/fleet/execute, which pays the HTTP
// round trip, the signature and the JSON framing once for all its
// cells. Cell determinism carries the whole design:
//
//   - Dispatch is at-least-once. A batch may be retried after a worker
//     failure and hedged when a worker straggles; the first valid
//     answer wins and duplicates are discarded. Because cells are
//     deterministic, duplicates are byte-identical, cell by cell, and
//     discarding is safe. A batch is all-or-nothing: an answer is valid
//     only if it carries every cell, in request order, each echoing its
//     key and cell id with a non-empty JSON body. A per-campaign budget
//     (Budget) bounds the total retries+hedges so a pathological batch
//     cannot hedge forever: past the budget its cells fall back to local
//     execution, one by one.
//   - The wire format is a plan coordinate, not code: the coordinator
//     sends (kind, normalized params) once and (cell index, cell id,
//     cache key) per cell, and the worker builds the dispatched cells
//     locally (experiments.CellAt), not the rest of the plan. Workers
//     verify that every built cell's id and cache key match the request
//     before running any of them and refuse the whole batch otherwise,
//     and registration rejects engine-version skew, so a mixed-version
//     fleet can never silently serve wrong bytes.
//   - Traffic is one-way. The coordinator dispatches only cells its own
//     tiers missed, and results flow back into those tiers; a worker
//     runs a batch's cells one after another, each from its own tiers
//     or executed, and apart from registration never calls the
//     coordinator. The coordinator is the only member that reads another
//     member's tiers (GET /v1/fleet/cells/{key} on a worker), and only
//     for a cell whose batch returned nothing. Exec-cost metadata rides
//     along, so eviction currency stays uniform fleet-wide.
//
// The wire protocol is part of the /v1 API contract (DESIGN.md §7):
// every response body carries "api_version", every non-2xx response is
// the standard error envelope (internal/api), X-Request-Id propagates
// coordinator→worker and is echoed back, and transport is authenticated
// by a shared-secret HMAC when a fleet token is configured (auth.go).
//
// Failure model: workers are soft state. They expire when heartbeats
// stop, are dropped immediately on connection failure, and re-register
// themselves; the coordinator falls back to local execution when no
// worker can serve a batch, so a fleet of zero workers degrades to
// exactly the single-process daemon. Placement over the live workers is
// capacity-aware (placement.go): a scorer over each worker's inflight
// load, RTT, and decaying failure penalty, so a briefly slow worker is
// deprioritized — not dropped — and recovers as its penalty decays.
// Capacity counts concurrent execute requests, each running its cells
// in order, and every batch attempt is one placement decision.
package fleet

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
)

// Wire paths, mounted on the daemons' ServeMux by RegisterHandlers.
// The fleet surface lives in the same versioned namespace as the rest
// of the /v1 API.
const (
	// PathRegister is the worker registration/heartbeat endpoint
	// (coordinator side).
	PathRegister = "/v1/fleet/register"
	// PathExecute is the batch execution endpoint (worker side): POST an
	// ExecuteBatch, get a BatchResponse.
	PathExecute = "/v1/fleet/execute"
	// PathCells is the cell-read prefix (worker side): GET PathCells +
	// key returns the cell body from the worker's memory+disk tiers, or
	// a 404 envelope. The coordinator's PeerFill reads it.
	PathCells = "/v1/fleet/cells/"
)

// RegisterRequest is a worker's registration POST body; re-POSTed every
// heartbeat interval (registration and heartbeat are the same message,
// so a coordinator restart loses no state it cannot rebuild within one
// interval).
type RegisterRequest struct {
	// URL is the worker's advertised base URL ("http://host:port").
	// It is the worker's identity: re-registering the same URL updates
	// the existing entry.
	URL string `json:"url"`
	// Capacity bounds the execute requests (batches) the coordinator
	// sends this worker concurrently (<=0 selects the coordinator's
	// default).
	Capacity int `json:"capacity,omitempty"`
	// EngineVersion is the worker's version.Engine. The coordinator
	// rejects a mismatch with 409: cache keys embed the engine version,
	// so a skewed worker could never produce usable results.
	EngineVersion string `json:"engine_version"`
}

// RegisterResponse acknowledges a registration.
type RegisterResponse struct {
	APIVersion string `json:"api_version"`
	OK         bool   `json:"ok"`
	// ID is the worker's stable identity in the /v1/workers surface,
	// derived from its advertised URL.
	ID string `json:"id"`
	// HeartbeatSec is the interval the coordinator wants heartbeats at
	// (a third of its worker TTL).
	HeartbeatSec float64 `json:"heartbeat_sec"`
}

// ExecuteRequest is one cell of a dispatch: a coordinate into the plan
// that experiments.Cells derives from (Kind, Params), plus the identity
// the worker must reproduce. Coordinator.Dispatch sends a campaign's
// requests as one ExecuteBatch, so they must share Kind, Params and
// RequestID.
type ExecuteRequest struct {
	Kind string `json:"kind"`
	// Params are the job's normalized campaign params; the worker
	// builds the dispatched cell from them, so the wire carries no code
	// and no partial state.
	Params experiments.CampaignParams `json:"params"`
	// Index is the cell's position in the plan.
	Index int `json:"index"`
	// CellID is the expected plan.Cells[Index].ID; a mismatch means the
	// two sides built different plans and the worker must refuse.
	CellID string `json:"cell_id"`
	// Key is the expected cell cache key (content address), verified the
	// same way.
	Key string `json:"key"`
	// RequestID is the submitting request's X-Request-Id, carried as a
	// header (never in the signed body) and echoed back by the worker.
	RequestID string `json:"-"`
}

// ExecuteBatch is the body of POST PathExecute: one campaign's kind and
// normalized params, and the cells of its plan to run, in order. The
// worker builds each cell with experiments.CellAt.
type ExecuteBatch struct {
	Kind   string                     `json:"kind"`
	Params experiments.CampaignParams `json:"params"`
	Cells  []BatchCell                `json:"cells"`
}

// BatchCell is one cell of an ExecuteBatch: its plan index and the id
// and cache key the worker must reproduce.
type BatchCell struct {
	Index  int    `json:"index"`
	CellID string `json:"cell_id"`
	Key    string `json:"key"`
}

// BatchResponse is a worker's answer to an ExecuteBatch: one
// ExecuteResponse per requested cell, in request order.
type BatchResponse struct {
	APIVersion string            `json:"api_version"`
	Cells      []ExecuteResponse `json:"cells"`
}

// ExecuteResponse is one cell of a worker's answer: the cell's
// canonical JSON body plus provenance.
type ExecuteResponse struct {
	// APIVersion is empty inside a BatchResponse, which carries it once.
	APIVersion string `json:"api_version,omitempty"`
	CellID     string `json:"cell_id"`
	Key        string `json:"key"`
	// Worker is the responding worker's advertised URL.
	Worker string `json:"worker"`
	// Engine is the cell's resolved execution tier ("sim"/"analytic").
	Engine string `json:"engine,omitempty"`
	// Source tells where the worker got the bytes: "executed",
	// "cache" (worker memory), or "disk" (worker store).
	Source string `json:"source"`
	// ExecNs is the execution wall time when Source == "executed", else
	// the cost metadata that rode along with the cached bytes (0 if
	// unknown). It becomes the eviction currency in the coordinator's
	// caches.
	ExecNs uint64 `json:"exec_ns,omitempty"`
	// Body is the cell's canonical JSON partial, verbatim.
	Body json.RawMessage `json:"body"`
	// Placement attributes the coordinator's placement decision for the
	// winning batch attempt ("score=… load=… rtt_ms=… penalty=…"); filled
	// by the coordinator after the race resolves, never by the worker.
	Placement string `json:"placement,omitempty"`
}

// execCostHeader carries the exec-cost metadata on cell-read
// responses, which return the raw body (not an envelope).
const execCostHeader = "X-Exec-Cost-Ns"

// Budget is a per-campaign cap on dispatch overshoot: every retry and
// hedge beyond a batch's first attempt spends one unit, whatever the
// batch's size. When the budget runs dry, in-flight attempts still
// resolve but nothing new launches — the batch's cells fall back to
// local execution — and Exhausted latches so the job view can report
// budget_exhausted. First attempts are never charged: the budget bounds
// pathology (a batch hedging forever across the fleet), not normal
// dispatch.
type Budget struct {
	remaining atomic.Int64
	unlimited bool
	exhausted atomic.Bool
}

// NewBudget builds a Budget allowing n retries+hedges per campaign;
// n <= 0 means unlimited.
func NewBudget(n int) *Budget {
	b := &Budget{unlimited: n <= 0}
	b.remaining.Store(int64(n))
	return b
}

// TrySpend consumes one unit, reporting false (and latching Exhausted)
// when none remain. A nil Budget is unlimited.
func (b *Budget) TrySpend() bool {
	if b == nil || b.unlimited {
		return true
	}
	if b.remaining.Add(-1) < 0 {
		b.exhausted.Store(true)
		return false
	}
	return true
}

// Exhausted reports whether any spend was ever refused.
func (b *Budget) Exhausted() bool { return b != nil && b.exhausted.Load() }

// writeFleetJSON writes a fleet response body. Unlike the client-facing
// /v1 endpoints, fleet bodies are compact, not indented: a
// BatchResponse embeds each cell's canonical bytes as a RawMessage,
// and an indenting encoder would re-format them — breaking the
// byte-identity the whole dispatch design rests on.
func writeFleetJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeAuthError maps an authenticator verdict to its 401 envelope.
func writeAuthError(w http.ResponseWriter, err error) {
	api.WriteError(w, http.StatusUnauthorized, "unauthenticated", "", err.Error())
}

// defaultClient is the HTTP client both sides use when the caller does
// not supply one: keep-alive, no global timeout (dispatch attempts are
// bounded by hedging and context cancellation, heartbeats by their own
// per-request contexts).
func defaultClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}}
}
