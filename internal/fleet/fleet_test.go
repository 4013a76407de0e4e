package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/diskstore"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// coordServer mounts a coordinator's fleet endpoints behind an httptest
// listener, cleaned up with the test.
func coordServer(t *testing.T, c *Coordinator) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	c.RegisterHandlers(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// registerWorker POSTs one registration for url, returning the response
// status.
func registerWorker(t *testing.T, coordURL, workerURL string, capacity int, engine string) int {
	t.Helper()
	body, _ := json.Marshal(RegisterRequest{URL: workerURL, Capacity: capacity, EngineVersion: engine})
	resp, err := http.Post(coordURL+PathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// stubWorker is a fake worker endpoint that answers execute batches
// with a valid answer after a per-request delay.
type stubWorker struct {
	ts *httptest.Server
	// delay returns how long request number n should take.
	delay func(n int) time.Duration
	// body, when set, is answered in place of each cell's echoed body.
	body string
	// mangle, when set, rewrites answer number n before it is sent.
	mangle func(n int, cells []ExecuteResponse) []ExecuteResponse

	mu     sync.Mutex
	served int
}

func newStubWorker(t *testing.T, delay func(n int) time.Duration) *stubWorker {
	t.Helper()
	s := &stubWorker{delay: delay}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathExecute, func(w http.ResponseWriter, r *http.Request) {
		var req ExecuteBatch
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			api.WriteError(w, http.StatusBadRequest, "invalid_request", "", err.Error())
			return
		}
		s.mu.Lock()
		n := s.served
		s.served++
		s.mu.Unlock()
		if s.delay != nil {
			select {
			case <-time.After(s.delay(n)):
			case <-r.Context().Done():
				return
			}
		}
		cells := make([]ExecuteResponse, len(req.Cells))
		for i, c := range req.Cells {
			body := json.RawMessage(fmt.Sprintf(`{"cell":%q}`, c.CellID))
			if s.body != "" {
				body = json.RawMessage(s.body)
			}
			cells[i] = ExecuteResponse{CellID: c.CellID, Key: c.Key, Worker: s.ts.URL, Source: "executed", ExecNs: 1, Body: body}
		}
		if s.mangle != nil {
			cells = s.mangle(n, cells)
		}
		writeFleetJSON(w, http.StatusOK, BatchResponse{APIVersion: api.Version, Cells: cells})
	})
	s.ts = httptest.NewServer(mux)
	t.Cleanup(s.ts.Close)
	return s
}

func (s *stubWorker) servedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.served
}

// execReq builds a dispatchable request for an arbitrary cell id; the
// stub workers echo identity, so any id works.
func execReq(id string) ExecuteRequest {
	return ExecuteRequest{Kind: "compare", Index: 0, CellID: id, Key: "key-" + id}
}

func TestRegistrationHeartbeatAndExpiry(t *testing.T) {
	c := NewCoordinator(Config{WorkerTTL: 80 * time.Millisecond})
	ts := coordServer(t, c)

	if code := registerWorker(t, ts.URL, "http://w1", 2, version.Engine); code != http.StatusOK {
		t.Fatalf("register: status %d", code)
	}
	if got := c.LiveWorkers(); got != 1 {
		t.Fatalf("LiveWorkers = %d, want 1", got)
	}
	// A re-register is a heartbeat: same worker, no new registration.
	if code := registerWorker(t, ts.URL, "http://w1", 2, version.Engine); code != http.StatusOK {
		t.Fatalf("heartbeat: status %d", code)
	}
	if got := c.Stats.Registrations.Load(); got != 1 {
		t.Errorf("Registrations = %d after heartbeat, want 1", got)
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].URL != "http://w1" || ws[0].Capacity != 2 {
		t.Errorf("Workers() = %+v, want one w1 with capacity 2", ws)
	}

	// Heartbeats stop: the worker expires after the TTL.
	deadline := time.Now().Add(5 * time.Second)
	for c.LiveWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker did not expire after TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Stats.Expirations.Load(); got != 1 {
		t.Errorf("Expirations = %d, want 1", got)
	}
}

func TestRegisterRejectsEngineSkew(t *testing.T) {
	c := NewCoordinator(Config{})
	ts := coordServer(t, c)
	if code := registerWorker(t, ts.URL, "http://w1", 2, "someone-elses-engine"); code != http.StatusConflict {
		t.Fatalf("skewed register: status %d, want 409", code)
	}
	if got := c.LiveWorkers(); got != 0 {
		t.Errorf("skewed worker admitted: LiveWorkers = %d", got)
	}
}

func TestDispatchNoWorkersFallsBack(t *testing.T) {
	c := NewCoordinator(Config{})
	if _, err := c.DispatchBudget(context.Background(), execReq("c1"), nil); err != ErrNoWorkers {
		t.Fatalf("Dispatch with no workers: %v, want ErrNoWorkers", err)
	}
	if got := c.Stats.Fallbacks.Load(); got != 1 {
		t.Errorf("Fallbacks = %d, want 1", got)
	}
}

// TestDispatchRetriesDeadWorker: a dispatch that lands on a dead worker
// retries on a live one, and the dead worker is dropped from the
// registry immediately — not left to soak up redispatches until TTL.
func TestDispatchRetriesDeadWorker(t *testing.T) {
	c := NewCoordinator(Config{Backoff: time.Millisecond, HedgeDelay: time.Minute})
	ts := coordServer(t, c)
	live := newStubWorker(t, nil)

	// The dead worker: a listener that is already closed.
	dead := httptest.NewServer(http.NewServeMux())
	deadURL := dead.URL
	dead.Close()

	// The dead worker advertises far more capacity, so the scorer's load
	// term ((inflight+1)/capacity) deterministically places the first
	// attempt on it — both are unmeasured, so RTT contributes equally.
	registerWorker(t, ts.URL, deadURL, 16, version.Engine)
	registerWorker(t, ts.URL, live.ts.URL, 1, version.Engine)

	resp, err := c.DispatchBudget(context.Background(), execReq("c0"), nil)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if resp.Worker != live.ts.URL {
		t.Fatalf("dispatch won by %q, want the live stub", resp.Worker)
	}
	if c.Stats.Retries.Load() == 0 {
		t.Fatalf("no dispatch retried off the dead worker (failures=%d)", c.Stats.Failures.Load())
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].URL != live.ts.URL {
		t.Errorf("dead worker still registered: %+v", ws)
	}
	if got := c.Stats.Expirations.Load(); got != 1 {
		t.Errorf("Expirations = %d, want 1 (connection-failure drop)", got)
	}
}

// TestCancelledAttemptKeepsWorker: an attempt cut off by its dispatch's
// context — a hedge still in flight when its campaign ends — frees the
// worker's capacity unit and changes nothing else about the worker: no
// drop, no failure, no penalty. The attempt still counts as a failed
// dispatch attempt, so the accounting dispatches == wins + duplicates +
// failures holds.
func TestCancelledAttemptKeepsWorker(t *testing.T) {
	c := NewCoordinator(Config{HedgeDelay: time.Minute})
	ts := coordServer(t, c)
	blocked := newStubWorker(t, func(int) time.Duration { return time.Minute })
	id := WorkerID(blocked.ts.URL)
	registerWorker(t, ts.URL, blocked.ts.URL, 1, version.Engine)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.DispatchBudget(ctx, execReq("c0"), nil)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for blocked.servedCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the attempt never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled dispatch returned %v, want context.Canceled", err)
	}
	for c.Stats.Failures.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the cancelled attempt was never counted as a failed attempt")
		}
		time.Sleep(time.Millisecond)
	}

	if got := c.LiveWorkers(); got != 1 {
		t.Errorf("LiveWorkers = %d, want 1: a cancelled attempt must not drop its worker", got)
	}
	if got := c.Stats.Expirations.Load(); got != 0 {
		t.Errorf("Expirations = %d, want 0", got)
	}
	d, ok := c.WorkerByID(id)
	if !ok {
		t.Fatal("worker missing from the registry")
	}
	if d.FailurePenalty != 0 || d.Failures != 0 || d.Succeeded != 0 || d.InFlight != 0 {
		t.Errorf("worker after a cancelled attempt: penalty=%v failures=%d succeeded=%d inflight=%d, want all 0",
			d.FailurePenalty, d.Failures, d.Succeeded, d.InFlight)
	}
}

// TestHedgedDispatchFirstValidWins: a straggling first attempt is hedged
// to a second worker; the fast hedge's result is delivered, and the
// straggler's late result is discarded as a duplicate — never a second
// delivery.
func TestHedgedDispatchFirstValidWins(t *testing.T) {
	c := NewCoordinator(Config{HedgeDelay: 10 * time.Millisecond, Backoff: time.Millisecond})
	ts := coordServer(t, c)
	slow := newStubWorker(t, func(int) time.Duration { return 300 * time.Millisecond })
	fast := newStubWorker(t, nil)

	// The straggler advertises more capacity, so the scorer's load term
	// deterministically places the first attempt on it (neither has an
	// RTT measurement yet); the hedge then races the fast worker.
	registerWorker(t, ts.URL, slow.ts.URL, 16, version.Engine)
	registerWorker(t, ts.URL, fast.ts.URL, 1, version.Engine)

	start := time.Now()
	resp, err := c.DispatchBudget(context.Background(), execReq("c0"), nil)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	// The fast worker wins as the hedge racing a 300ms straggler.
	if resp.Worker != fast.ts.URL {
		t.Fatalf("dispatch won by %q after %v, want the fast worker", resp.Worker, time.Since(start))
	}
	if c.Stats.Hedges.Load() != 1 || c.Stats.HedgeWins.Load() != 1 {
		t.Fatalf("hedge accounting: hedges=%d wins=%d, want 1/1",
			c.Stats.Hedges.Load(), c.Stats.HedgeWins.Load())
	}
	// The straggler's late result drains as a discarded duplicate — it is
	// never delivered as a second response.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats.Duplicates.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("straggler result never drained as duplicate (dup=%d fail=%d)",
				c.Stats.Duplicates.Load(), c.Stats.Failures.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := c.Stats.DuplicateMismatches.Load(); m != 0 {
		t.Errorf("an identical duplicate counted as %d mismatches", m)
	}
}

// TestLateDuplicateMismatchCounted: a straggler whose late result carries
// different bytes from the hedge's winning result is still discarded as a
// duplicate, and is counted as a mismatch.
func TestLateDuplicateMismatchCounted(t *testing.T) {
	c := NewCoordinator(Config{HedgeDelay: 10 * time.Millisecond, Backoff: time.Millisecond})
	ts := coordServer(t, c)
	slow := newStubWorker(t, func(int) time.Duration { return 300 * time.Millisecond })
	slow.body = `{"cell":"diverged"}`
	fast := newStubWorker(t, nil)
	registerWorker(t, ts.URL, slow.ts.URL, 16, version.Engine)
	registerWorker(t, ts.URL, fast.ts.URL, 1, version.Engine)

	resp, err := c.DispatchBudget(context.Background(), execReq("c0"), nil)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if resp.Worker != fast.ts.URL || string(resp.Body) != `{"cell":"c0"}` {
		t.Fatalf("dispatch won by %q with %s, want the fast worker's echo", resp.Worker, resp.Body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats.Duplicates.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("straggler result never drained (dup=%d fail=%d)",
				c.Stats.Duplicates.Load(), c.Stats.Failures.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if m := c.Stats.DuplicateMismatches.Load(); m != 1 {
		t.Errorf("DuplicateMismatches = %d, want 1", m)
	}
}

// TestBatchRefusedWhole: a batch is all-or-nothing. An answer with its
// cells out of order, with one wrong key, or with too few cells is
// refused for the whole batch, which is retried on another worker; the
// cells are counted per cell on every attempt. A straggling batch's late
// duplicate is compared with the winner cell by cell.
func TestBatchRefusedWhole(t *testing.T) {
	reqs := []ExecuteRequest{execReq("c0"), execReq("c1"), execReq("c2")}
	for _, tc := range []struct {
		name   string
		mangle func(cells []ExecuteResponse) []ExecuteResponse
	}{
		{"out of order", func(cells []ExecuteResponse) []ExecuteResponse {
			cells[0], cells[1] = cells[1], cells[0]
			return cells
		}},
		{"one wrong key", func(cells []ExecuteResponse) []ExecuteResponse {
			cells[1].Key = "key-other"
			return cells
		}},
		{"too few cells", func(cells []ExecuteResponse) []ExecuteResponse { return cells[:2] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(Config{Backoff: time.Millisecond, HedgeDelay: time.Minute})
			ts := coordServer(t, c)
			liar := newStubWorker(t, nil)
			liar.mangle = func(_ int, cells []ExecuteResponse) []ExecuteResponse { return tc.mangle(cells) }
			honest := newStubWorker(t, nil)
			// The liar advertises more capacity, so the scorer places the
			// first attempt on it.
			registerWorker(t, ts.URL, liar.ts.URL, 16, version.Engine)
			registerWorker(t, ts.URL, honest.ts.URL, 1, version.Engine)

			resps, err := c.Dispatch(context.Background(), reqs, nil)
			if err != nil {
				t.Fatalf("dispatch: %v", err)
			}
			if len(resps) != len(reqs) {
				t.Fatalf("%d responses for %d cells", len(resps), len(reqs))
			}
			for i, r := range resps {
				if r.Worker != honest.ts.URL || r.CellID != reqs[i].CellID || string(r.Body) != fmt.Sprintf(`{"cell":%q}`, reqs[i].CellID) {
					t.Errorf("cell %d: %+v, want the honest worker's echo of %s", i, r, reqs[i].CellID)
				}
			}
			if liar.servedCount() != 1 || honest.servedCount() != 1 {
				t.Errorf("served liar=%d honest=%d, want one batch each", liar.servedCount(), honest.servedCount())
			}
			st := &c.Stats
			if st.Batches.Load() != 2 || st.Retries.Load() != 1 || st.PlacementDecisions.Load() != 2 {
				t.Errorf("batches=%d retries=%d placements=%d, want 2/1/2",
					st.Batches.Load(), st.Retries.Load(), st.PlacementDecisions.Load())
			}
			if st.Dispatches.Load() != 6 || st.Failures.Load() != 3 || st.RemoteCells.Load() != 3 || st.Duplicates.Load() != 0 {
				t.Errorf("cells: dispatches=%d failures=%d remote=%d duplicates=%d, want 6/3/3/0",
					st.Dispatches.Load(), st.Failures.Load(), st.RemoteCells.Load(), st.Duplicates.Load())
			}
		})
	}

	t.Run("late duplicate compared per cell", func(t *testing.T) {
		c := NewCoordinator(Config{HedgeDelay: 10 * time.Millisecond, Backoff: time.Millisecond})
		ts := coordServer(t, c)
		slow := newStubWorker(t, func(int) time.Duration { return 300 * time.Millisecond })
		slow.mangle = func(_ int, cells []ExecuteResponse) []ExecuteResponse {
			cells[2].Body = json.RawMessage(`{"cell":"diverged"}`)
			return cells
		}
		fast := newStubWorker(t, nil)
		registerWorker(t, ts.URL, slow.ts.URL, 16, version.Engine)
		registerWorker(t, ts.URL, fast.ts.URL, 1, version.Engine)

		resps, err := c.Dispatch(context.Background(), reqs, nil)
		if err != nil {
			t.Fatalf("dispatch: %v", err)
		}
		if resps[0].Worker != fast.ts.URL {
			t.Fatalf("dispatch won by %q, want the fast hedge", resps[0].Worker)
		}
		deadline := time.Now().Add(5 * time.Second)
		for c.Stats.Duplicates.Load() != 3 {
			if time.Now().After(deadline) {
				t.Fatalf("straggling batch never drained (dup=%d fail=%d)",
					c.Stats.Duplicates.Load(), c.Stats.Failures.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if m := c.Stats.DuplicateMismatches.Load(); m != 1 {
			t.Errorf("DuplicateMismatches = %d, want 1 (the one diverged cell)", m)
		}
		if d, r := c.Stats.Dispatches.Load(), c.Stats.RemoteCells.Load()+c.Stats.Duplicates.Load()+c.Stats.Failures.Load(); d != r || d != 6 {
			t.Errorf("dispatches=%d, remote+duplicates+failures=%d, want 6 each", d, r)
		}
	})
}

// TestHedgeDeterminismProperty is the dispatch-determinism property test:
// across many dispatches with adversarially jittered worker latencies
// (some straggling past the hedge delay, some fast), every Dispatch call
// delivers exactly one result, and every launched attempt is accounted
// exactly once as the win, a discarded duplicate, or a failure — so
// duplicates can never double-fold into cell stats or a merge, and the
// caller's misses == execution-attempts invariant holds fleet-wide.
func TestHedgeDeterminismProperty(t *testing.T) {
	c := NewCoordinator(Config{HedgeDelay: 3 * time.Millisecond, Backoff: time.Millisecond})
	ts := coordServer(t, c)
	rng := rand.New(rand.NewSource(1))
	var mu sync.Mutex
	jitter := func(int) time.Duration {
		mu.Lock()
		defer mu.Unlock()
		// Half the requests straggle past the hedge delay.
		if rng.Intn(2) == 0 {
			return time.Duration(4+rng.Intn(8)) * time.Millisecond
		}
		return time.Duration(rng.Intn(2)) * time.Millisecond
	}
	w1 := newStubWorker(t, jitter)
	w2 := newStubWorker(t, jitter)
	registerWorker(t, ts.URL, w1.ts.URL, 64, version.Engine)
	registerWorker(t, ts.URL, w2.ts.URL, 64, version.Engine)

	const cells = 48
	delivered := make([]*ExecuteResponse, cells)
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.DispatchBudget(context.Background(), execReq(fmt.Sprintf("c%03d", i)), nil)
			if err != nil {
				t.Errorf("dispatch %d: %v", i, err)
				return
			}
			delivered[i] = resp
		}(i)
	}
	wg.Wait()

	// Exactly one delivery per call, each echoing its own cell identity.
	for i, resp := range delivered {
		if resp == nil {
			t.Fatalf("cell %d delivered nothing", i)
		}
		if want := fmt.Sprintf("c%03d", i); resp.CellID != want {
			t.Errorf("cell %d delivered %q", i, resp.CellID)
		}
	}
	if got := c.Stats.RemoteCells.Load(); got != cells {
		t.Errorf("RemoteCells = %d, want %d (one win per dispatch)", got, cells)
	}

	// Every launched attempt resolves exactly once: win, duplicate, or
	// failure. Late stragglers drain in the background, so poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := c.Stats.Dispatches.Load()
		resolved := c.Stats.RemoteCells.Load() + c.Stats.Duplicates.Load() + c.Stats.Failures.Load()
		if d == resolved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("attempt accounting never converged: dispatches=%d wins=%d dup=%d fail=%d",
				d, c.Stats.RemoteCells.Load(), c.Stats.Duplicates.Load(), c.Stats.Failures.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The workers' served totals bound the duplicates: everything served
	// beyond one per cell was hedging overshoot, discarded.
	served := w1.servedCount() + w2.servedCount()
	if served < cells {
		t.Errorf("workers served %d < %d cells", served, cells)
	}
	if dup := int(c.Stats.Duplicates.Load()); dup > served-cells {
		t.Errorf("Duplicates = %d exceeds overshoot %d", dup, served-cells)
	}
}

// TestWorkerEndToEnd runs the real Worker against a real cell plan: the
// worker registers itself, verifies the dispatched plan coordinate,
// executes the cell, and returns bytes identical to a local run; a
// dispatch whose key does not match the plan is refused.
func TestWorkerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation cell in -short mode")
	}
	c := NewCoordinator(Config{HedgeDelay: time.Minute})
	coord := coordServer(t, c)

	w := NewWorker(WorkerConfig{Coordinator: coord.URL, Capacity: 4, Heartbeat: 50 * time.Millisecond})
	wmux := http.NewServeMux()
	w.RegisterHandlers(wmux)
	wts := httptest.NewServer(wmux)
	t.Cleanup(wts.Close)
	w.Start(wts.URL)
	t.Cleanup(w.Stop)

	if got := c.LiveWorkers(); got != 1 {
		t.Fatalf("worker did not register synchronously: LiveWorkers = %d", got)
	}

	campaign, ok := experiments.CampaignByKind("compare")
	if !ok {
		t.Fatal("compare kind unregistered")
	}
	params, err := campaign.Normalize(experiments.CampaignParams{
		Fast: true, Replications: 1, Mix: 5, Policies: []string{"Equipartition"}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.Cells("compare", params)
	if err != nil {
		t.Fatal(err)
	}
	cell := &plan.Cells[0]
	key := resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine)

	// Local reference execution.
	res, err := cell.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.CanonicalJSON(res)
	if err != nil {
		t.Fatal(err)
	}

	req := ExecuteRequest{Kind: "compare", Params: params, Index: 0, CellID: cell.ID, Key: key}
	resp, err := c.DispatchBudget(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if resp.Source != "executed" || !bytes.Equal(resp.Body, want) {
		t.Fatalf("remote cell source=%q, body differs from local run: %.120s", resp.Source, resp.Body)
	}
	if got := w.Stats.Executions.Load(); got != 1 {
		t.Errorf("worker Executions = %d, want 1", got)
	}

	// The worker verifies plan identity before its tier lookups, so a
	// mismatched key must be refused, not served.
	bad := req
	bad.Key = "other-key"
	if _, err := c.DispatchBudget(context.Background(), bad, nil); err == nil {
		t.Fatal("dispatch with mismatched key succeeded; worker must refuse")
	}
}

// TestWorkerNeverCallsCoordinator: fleet traffic is one-way. A worker
// with empty tiers executes a dispatched cell even though the
// coordinator holds its bytes, and the coordinator sees no request but
// registrations.
func TestWorkerNeverCallsCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a simulation cell in -short mode")
	}
	params := experiments.CampaignParams{Fast: true, Replications: 1, Mix: 5, Policies: []string{"Equipartition"}, Workers: 1}
	plan, err := experiments.Cells("compare", params)
	if err != nil {
		t.Fatal(err)
	}
	cell := &plan.Cells[0]
	key := resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine)
	want, err := plan.Cells[0].RunBody(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cache := resultcache.New(1 << 20)
	cache.PutCost(key, want, 123)
	c := NewCoordinator(Config{Cache: cache, HedgeDelay: time.Minute})
	mux := http.NewServeMux()
	c.RegisterHandlers(mux)
	var mu sync.Mutex
	var seen []string
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.URL.Path)
		mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(coord.Close)
	w, wts := startWorker(t, WorkerConfig{Coordinator: coord.URL, Capacity: 4})

	code, raw := postBatch(t, wts.URL, ExecuteRequest{Kind: "compare", Params: params, Index: 0, CellID: cell.ID, Key: key})
	var batch BatchResponse
	if err := json.Unmarshal(raw, &batch); code != http.StatusOK || err != nil || len(batch.Cells) != 1 {
		t.Fatalf("execute: status %d: %s", code, raw)
	}
	if resp := batch.Cells[0]; resp.Source != "executed" || !bytes.Equal(resp.Body, want) {
		t.Fatalf("source %q, body %.80s: want the cell executed on the worker", resp.Source, resp.Body)
	}
	if got := w.Stats.Executions.Load(); got != 1 {
		t.Errorf("worker Executions = %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, req := range seen {
		if req != "POST "+PathRegister {
			t.Errorf("coordinator received %s; a worker may only register", req)
		}
	}
}

// postBatch POSTs reqs to a worker's execute endpoint as one unsigned
// batch, returning the status and body.
func postBatch(t *testing.T, base string, reqs ...ExecuteRequest) (int, []byte) {
	t.Helper()
	payload, _ := json.Marshal(newBatch(reqs))
	hr, err := http.Post(base+PathExecute, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	body, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	return hr.StatusCode, body
}

// startWorker boots a real Worker behind an httptest listener and
// registers it with the coordinator at coordURL.
func startWorker(t *testing.T, cfg WorkerConfig) (*Worker, *httptest.Server) {
	t.Helper()
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = time.Minute
	}
	w := NewWorker(cfg)
	mux := http.NewServeMux()
	w.RegisterHandlers(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	w.Start(ts.URL)
	t.Cleanup(w.Stop)
	return w, ts
}

// openStore opens a store in a fresh temp directory, closed with the
// test.
func openStore(t *testing.T) *diskstore.Store {
	t.Helper()
	s, err := diskstore.Open(t.TempDir(), diskstore.Options{EngineVersion: version.Engine})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// getCell GETs a cell-read endpoint, returning status, body, and the
// exec-cost header.
func getCell(t *testing.T, base, key string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(base + PathCells + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header.Get(execCostHeader)
}

// TestWorkerCellReadServesDisk: a worker's cell-read endpoint serves a
// cell held only in its disk store, with the stored exec cost.
func TestWorkerCellReadServesDisk(t *testing.T) {
	const key = "disk-key"
	body := []byte(`{"from":"disk"}`)
	store := openStore(t)
	store.Put(key, body, 987)
	if err := store.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(Config{})
	coord := coordServer(t, c)
	w, wts := startWorker(t, WorkerConfig{Coordinator: coord.URL, Cache: resultcache.New(1 << 20), Store: store})

	code, got, costHdr := getCell(t, wts.URL, key)
	if code != http.StatusOK || !bytes.Equal(got, body) || costHdr != "987" {
		t.Fatalf("worker disk read: %d %q cost %q, want 200 %q cost 987", code, got, costHdr, body)
	}
	if n := w.Stats.CellServes.Load(); n != 1 {
		t.Errorf("CellServes = %d, want 1", n)
	}
	if code, _, _ := getCell(t, wts.URL, "absent"); code != http.StatusNotFound {
		t.Errorf("absent key: status %d, want 404", code)
	}
}

// TestWorkerDispatchesAnyCellOfAPlan: the worker builds the dispatched
// cell of a multi-cell plan, not cell 0. A future plan's table1 cells lie
// past its compare cells; one of them must come back as the local run's
// bytes. A batch holding an index past the plan is a 400 on "index", one
// holding a cell ID that is not the plan's is a 409, each refused whole
// before any of its cells runs, and an empty batch is a 400 on "cells".
func TestWorkerDispatchesAnyCellOfAPlan(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a measurement cell in -short mode")
	}
	campaign, _ := experiments.CampaignByKind("future")
	params, err := campaign.Normalize(experiments.CampaignParams{
		Fast: true, Replications: 1, BudgetSec: 0.5, Policies: []string{"Dynamic"}, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.Cells("future", params)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i := range plan.Cells {
		if plan.Cells[i].KeyKind == "cell/table1" {
			idx = i + 1 // a table1 cell past the first
			break
		}
	}
	if idx <= 0 || plan.Cells[idx].KeyKind != "cell/table1" {
		t.Fatalf("future plan has no second table1 cell")
	}
	cell := &plan.Cells[idx]
	key := resultcache.Key(cell.KeyKind, cell.KeyParams, version.Engine)
	want, err := cell.RunBody(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	coord := coordServer(t, NewCoordinator(Config{}))
	w, wts := startWorker(t, WorkerConfig{Coordinator: coord.URL, Capacity: 4})
	req := ExecuteRequest{Kind: "future", Params: params, Index: idx, CellID: cell.ID, Key: key}

	prev := &plan.Cells[idx-1]
	first := ExecuteRequest{Kind: "future", Params: params, Index: idx - 1, CellID: prev.ID,
		Key: resultcache.Key(prev.KeyKind, prev.KeyParams, version.Engine)}

	code, body := postBatch(t, wts.URL, req)
	var batch BatchResponse
	if err := json.Unmarshal(body, &batch); code != http.StatusOK || err != nil || len(batch.Cells) != 1 {
		t.Fatalf("dispatch of cell %d: status %d: %s", idx, code, body)
	}
	if resp := batch.Cells[0]; resp.CellID != cell.ID || resp.Source != "executed" || !bytes.Equal(resp.Body, want) {
		t.Fatalf("cell %d: got %q source %q body %.80s, want %q executed with the local run's bytes",
			idx, resp.CellID, resp.Source, resp.Body, cell.ID)
	}

	for _, tc := range []struct {
		name   string
		mutate func(*ExecuteRequest)
		status int
		code   string
		field  string
	}{
		{"index past the plan", func(r *ExecuteRequest) { r.Index = len(plan.Cells) }, http.StatusBadRequest, "invalid_param", "index"},
		{"wrong cell ID", func(r *ExecuteRequest) { r.CellID = plan.Cells[idx-1].ID }, http.StatusConflict, "plan_mismatch", ""},
	} {
		// The bad cell rides behind a valid one: it refuses the whole batch.
		bad := req
		tc.mutate(&bad)
		status, body := postBatch(t, wts.URL, first, bad)
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil || status != tc.status || env.Error.Code != tc.code || env.Error.Field != tc.field {
			t.Errorf("%s: status %d body %s; want %d %s on field %q", tc.name, status, body, tc.status, tc.code, tc.field)
		}
	}
	// Every cell is checked before any runs: the valid cells of the
	// refused batches never executed.
	if got := w.Stats.Executions.Load(); got != 1 {
		t.Errorf("worker Executions = %d after two refused batches, want 1", got)
	}
	empty, _ := json.Marshal(ExecuteBatch{Kind: "future", Params: params})
	hr, err := http.Post(wts.URL+PathExecute, "application/json", bytes.NewReader(empty))
	if err != nil {
		t.Fatal(err)
	}
	env := decodeEnvelope(t, hr)
	if hr.StatusCode != http.StatusBadRequest || env.Error.Code != "invalid_param" || env.Error.Field != "cells" {
		t.Errorf("empty batch: status %d %+v, want 400 invalid_param on cells", hr.StatusCode, env.Error)
	}
}
