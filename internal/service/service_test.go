package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
)

// testEnv wires a Server with a controllable runner behind an HTTP
// listener.
type testEnv struct {
	t   *testing.T
	s   *Server
	ts  *httptest.Server
	url string
}

func newEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return &testEnv{t: t, s: s, ts: ts, url: ts.URL}
}

// submit POSTs a campaign request and returns the response.
func (e *testEnv) submit(body string) *http.Response {
	e.t.Helper()
	resp, err := http.Post(e.url+"/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		e.t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// countingRunner returns a deterministic result and counts executions.
func countingRunner(runs *atomic.Int64, delay time.Duration) Runner {
	return func(ctx context.Context, kind string, p experiments.CampaignParams) (any, error) {
		runs.Add(1)
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return map[string]any{"kind": kind, "seed": p.Seed, "payload": "deterministic"}, nil
	}
}

// gateRunner blocks until released (or cancelled), reporting starts.
type gateRunner struct {
	started chan string
	release chan struct{}
}

func newGateRunner() *gateRunner {
	return &gateRunner{started: make(chan string, 16), release: make(chan struct{})}
}

func (g *gateRunner) run(ctx context.Context, kind string, p experiments.CampaignParams) (any, error) {
	g.started <- kind
	select {
	case <-g.release:
		return map[string]any{"seed": p.Seed}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestSubmitCacheHitByteIdentical(t *testing.T) {
	var runs atomic.Int64
	e := newEnv(t, Config{Runner: countingRunner(&runs, 0)})

	req := `{"kind":"table1","params":{"fast":true,"budget_sec":0.5}}`
	r1 := e.submit(req)
	body1 := readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first submit: %d %s", r1.StatusCode, body1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first submit X-Cache = %q, want miss", got)
	}

	r2 := e.submit(req)
	body2 := readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second submit: %d %s", r2.StatusCode, body2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second submit X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("bodies differ:\n%s\n%s", body1, body2)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runner executed %d times, want 1", n)
	}
	if st := e.s.Cache().Stats(); st.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", st.Hits)
	}

	// Equivalent spelling (explicit defaults) must also hit.
	r3 := e.submit(`{"kind":"table1","params":{"fast":true,"budget_sec":0.5,"seed":1,"workers":3}}`)
	body3 := readAll(t, r3)
	if got := r3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("equivalent request X-Cache = %q, want hit (body %s)", got, body3)
	}
	if !bytes.Equal(body1, body3) {
		t.Errorf("equivalent request body differs")
	}
}

func TestSubmitValidation(t *testing.T) {
	e := newEnv(t, Config{Runner: countingRunner(new(atomic.Int64), 0)})
	cases := []struct {
		body string
		want int
	}{
		{`{"kind":"nonsense"}`, http.StatusBadRequest},
		{`{"kind":"compare","params":{"mix":42}}`, http.StatusBadRequest},
		{`{"kind":"compare","params":{"policies":["NoSuch"]}}`, http.StatusBadRequest},
		{`{"kind":"table1","stray":true}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := e.submit(tc.body)
		b := readAll(t, resp)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: got %d (%s), want %d", tc.body, resp.StatusCode, b, tc.want)
		}
	}
}

func TestSingleflightDedup(t *testing.T) {
	g := newGateRunner()
	e := newEnv(t, Config{Runner: g.run, JobWorkers: 4, QueueDepth: 8})

	req := `{"kind":"characterize","params":{"seed":7}}`
	const clients = 5
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := e.submit(req)
			bodies[i] = readAll(e.t, resp)
		}(i)
	}
	<-g.started // exactly one execution begins
	// No second start may arrive; give a dedup failure a moment to show.
	select {
	case k := <-g.started:
		t.Errorf("second runner execution started (%s); singleflight failed", k)
	case <-time.After(100 * time.Millisecond):
	}
	close(g.release)
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("client %d got different bytes", i)
		}
	}
}

func TestQueueFull429(t *testing.T) {
	g := newGateRunner()
	e := newEnv(t, Config{Runner: g.run, JobWorkers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})

	// Occupy the single worker.
	go e.submit(`{"kind":"characterize","params":{"seed":1}}`)
	<-g.started
	// Fill the single queue slot (async so we don't block).
	r2 := e.submit(`{"kind":"characterize","params":{"seed":2},"async":true}`)
	readAll(t, r2)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %d", r2.StatusCode)
	}
	// Third distinct request must bounce.
	r3 := e.submit(`{"kind":"characterize","params":{"seed":3}}`)
	b3 := readAll(t, r3)
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: got %d (%s), want 429", r3.StatusCode, b3)
	}
	if ra := r3.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want 3", ra)
	}
	// An identical duplicate of the RUNNING job still dedups — no queue
	// slot needed, no 429.
	r4 := e.submit(`{"kind":"characterize","params":{"seed":1},"async":true}`)
	readAll(t, r4)
	if r4.StatusCode != http.StatusAccepted {
		t.Errorf("dedup-during-overload: got %d, want 202", r4.StatusCode)
	}
	close(g.release)
}

func TestAsyncLifecycleAndResult(t *testing.T) {
	g := newGateRunner()
	e := newEnv(t, Config{Runner: g.run})

	resp := e.submit(`{"kind":"relatedwork","params":{"seed":9},"async":true}`)
	var v jobView
	if err := json.Unmarshal(readAll(t, resp), &v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || v.ID == "" {
		t.Fatalf("async submit: %d %+v", resp.StatusCode, v)
	}
	<-g.started

	get := func(path string) (*http.Response, []byte) {
		r, err := http.Get(e.url + path)
		if err != nil {
			t.Fatal(err)
		}
		return r, readAll(t, r)
	}
	r, b := get("/v1/jobs/" + v.ID)
	var running jobView
	json.Unmarshal(b, &running)
	if r.StatusCode != 200 || running.Status != "running" {
		t.Fatalf("status while running: %d %+v", r.StatusCode, running)
	}
	// Result before completion: 409.
	if r, _ := get("/v1/jobs/" + v.ID + "/result"); r.StatusCode != http.StatusConflict {
		t.Errorf("early result fetch: got %d, want 409", r.StatusCode)
	}
	close(g.release)

	deadline := time.Now().Add(5 * time.Second)
	var done jobView
	for time.Now().Before(deadline) {
		_, b := get("/v1/jobs/" + v.ID)
		json.Unmarshal(b, &done)
		if done.Status == "done" {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if done.Status != "done" || done.ResultURL == "" {
		t.Fatalf("job never completed: %+v", done)
	}
	r, body := get(done.ResultURL)
	if r.StatusCode != 200 || !strings.Contains(string(body), `"seed":9`) {
		t.Errorf("result fetch: %d %s", r.StatusCode, body)
	}
	// Unknown job id.
	if r, _ := get("/v1/jobs/zzz"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: got %d, want 404", r.StatusCode)
	}
}

func TestCancelRunningJob(t *testing.T) {
	g := newGateRunner()
	e := newEnv(t, Config{Runner: g.run})

	resp := e.submit(`{"kind":"compare","params":{"seed":4},"async":true}`)
	var v jobView
	json.Unmarshal(readAll(t, resp), &v)
	<-g.started

	req, _ := http.NewRequest(http.MethodDelete, e.url+"/v1/jobs/"+v.ID, nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", r.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rs, err := http.Get(e.url + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var now jobView
		json.Unmarshal(readAll(t, rs), &now)
		if now.Status == "canceled" {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached canceled")
}

// TestDisconnectCancelsSoleWaiter: a synchronous client that goes away is
// the only party interested; the campaign must stop.
func TestDisconnectCancelsSoleWaiter(t *testing.T) {
	g := newGateRunner()
	e := newEnv(t, Config{Runner: g.run})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/campaigns",
		strings.NewReader(`{"kind":"future","params":{"seed":6}}`))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-g.started
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected client-side context error")
	}
	// The runner observes ctx cancellation and the job lands in canceled.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(e.url + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, r)
		if strings.Contains(string(b), `"canceled"`) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("abandoned job never canceled")
}

func TestShutdownDrainsInflightCancelsQueued(t *testing.T) {
	g := newGateRunner()
	s := New(Config{Runner: g.run, JobWorkers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// One running...
	r1 := post(`{"kind":"characterize","params":{"seed":1},"async":true}`)
	var running jobView
	json.Unmarshal(readAll(t, r1), &running)
	<-g.started
	// ...and one queued.
	r2 := post(`{"kind":"characterize","params":{"seed":2},"async":true}`)
	var queued jobView
	json.Unmarshal(readAll(t, r2), &queued)

	// Release the in-flight job just after shutdown starts draining.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(g.release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	status := func(id string) string {
		r, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		json.Unmarshal(readAll(t, r), &v)
		return v.Status
	}
	if st := status(running.ID); st != "done" {
		t.Errorf("in-flight job drained to %q, want done", st)
	}
	if st := status(queued.ID); st != "canceled" {
		t.Errorf("queued job at shutdown: %q, want canceled", st)
	}
	// New submissions are refused while draining/drained.
	r3 := post(`{"kind":"characterize","params":{"seed":3}}`)
	readAll(t, r3)
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: got %d, want 503", r3.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	var runs atomic.Int64
	e := newEnv(t, Config{Runner: countingRunner(&runs, 0)})

	r, err := http.Get(e.url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb := readAll(t, r)
	if r.StatusCode != 200 || !strings.Contains(string(hb), `"ok"`) {
		t.Fatalf("healthz: %d %s", r.StatusCode, hb)
	}

	// Run a campaign twice: one miss, one hit.
	for i := 0; i < 2; i++ {
		readAll(t, e.submit(`{"kind":"table1","params":{"fast":true}}`))
	}
	r, err = http.Get(e.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := string(readAll(t, r))
	for _, want := range []string{
		"affinityd_queue_depth 0",
		"affinityd_jobs_submitted_total 2",
		"affinityd_jobs_completed_total 1",
		"affinityd_cache_hits_total 1",
		"affinityd_cache_misses_total 1",
		`affinityd_campaign_latency_seconds_count{kind="table1"} 1`,
		// Request spans: both submits look up the cache; only the miss
		// is admitted, dispatched, and executed.
		"affinityd_request_cache_lookup_seconds_count 2",
		"affinityd_request_admit_seconds_count 1",
		"affinityd_request_queue_wait_seconds_count 1",
		"affinityd_request_exec_seconds_count 1",
		`affinityd_request_exec_seconds_bucket{le="+Inf"} 1`,
		// The stub runner carries no collector through the registry, so
		// the engine counters exist but stay zero.
		"affinityd_sim_runs_total 0",
		"affinityd_sim_reallocations_total 0",
	} {
		if !strings.Contains(mb, want) {
			t.Errorf("metrics missing %q\n%s", want, mb)
		}
	}

	rc, err := http.Get(e.url + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	cb := string(readAll(t, rc))
	for _, kind := range []string{"characterize", "table1", "compare", "future", "futuresim", "relatedwork"} {
		if !strings.Contains(cb, fmt.Sprintf("%q", kind)) {
			t.Errorf("campaign listing missing %q: %s", kind, cb)
		}
	}
}

// TestCancelQueuedVsDequeueNoPanic races DELETE /v1/jobs/{id} on queued
// jobs against workers dequeuing them. Before the worker's guarded
// queued→running transition, this interleaving could finish a job twice
// and panic the daemon on a double close of j.done.
func TestCancelQueuedVsDequeueNoPanic(t *testing.T) {
	var runs atomic.Int64
	e := newEnv(t, Config{Runner: countingRunner(&runs, 0), JobWorkers: 2, QueueDepth: 64})

	for i := 1; i <= 60; i++ {
		resp := e.submit(fmt.Sprintf(`{"kind":"characterize","params":{"seed":%d},"async":true}`, i))
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, b)
		}
		var v jobView
		json.Unmarshal(b, &v)
		req, _ := http.NewRequest(http.MethodDelete, e.url+"/v1/jobs/"+v.ID, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, r)
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %d: %d", i, r.StatusCode)
		}
	}

	// Every job must settle into a terminal state: nothing wedged, nothing
	// resurrected to running after being finished.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(e.url + "/v1/jobs")
		if err != nil {
			t.Fatal(err)
		}
		b := string(readAll(t, r))
		if !strings.Contains(b, `"queued"`) && !strings.Contains(b, `"running"`) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("jobs never all reached a terminal state")
}

// TestResubmitAfterAbandonGetsFreshRun: a job cancelled by its last
// waiter's disconnect can squat on the singleflight slot until its worker
// notices. A new identical request must not attach to that dying job (it
// would get a 409 it never caused) — it gets a fresh run.
func TestResubmitAfterAbandonGetsFreshRun(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	stubborn := func(ctx context.Context, kind string, p experiments.CampaignParams) (any, error) {
		started <- struct{}{}
		<-release // slow to observe cancellation, like a real campaign mid-cell
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return map[string]any{"seed": p.Seed}, nil
	}
	e := newEnv(t, Config{Runner: stubborn, JobWorkers: 1})

	// Client A is the sole waiter; disconnecting cancels the job, but the
	// runner keeps it occupying the singleflight slot.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/campaigns",
		strings.NewReader(`{"kind":"characterize","params":{"seed":11}}`))
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("expected client-side context error")
	}

	// Wait until the server has cancelled the abandoned job's context.
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.s.mu.Lock()
		cancelled := false
		for _, j := range e.s.inflight {
			cancelled = j.ctx.Err() != nil
		}
		e.s.mu.Unlock()
		if cancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned job never observed cancellation")
		}
		time.Sleep(time.Millisecond)
	}

	// Client B resubmits the identical request while the dying job still
	// holds the slot, then the worker is released to reap it.
	done := make(chan *http.Response, 1)
	go func() { done <- e.submit(`{"kind":"characterize","params":{"seed":11}}`) }()
	time.Sleep(50 * time.Millisecond) // let B's admit run against the dying job
	close(release)
	resp := <-done
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmit after abandon: got %d (%s), want 200 from a fresh run", resp.StatusCode, body)
	}
}

// TestRetryAfterNeverZero: a sub-second RetryAfter config used to round
// to "Retry-After: 0", which clients treat as "retry immediately" —
// amplifying the very overload the 429 is shedding. The hint must ceil
// to whole seconds with a floor of 1.
func TestRetryAfterNeverZero(t *testing.T) {
	cases := []struct {
		cfg  time.Duration
		want string
	}{
		{100 * time.Millisecond, "1"},
		{499 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{3 * time.Second, "3"},
	}
	for _, tc := range cases {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			g := newGateRunner()
			e := newEnv(t, Config{Runner: g.run, JobWorkers: 1, QueueDepth: 1, RetryAfter: tc.cfg})
			// Occupy the worker and the single queue slot.
			go e.submit(`{"kind":"characterize","params":{"seed":1}}`)
			<-g.started
			readAll(t, e.submit(`{"kind":"characterize","params":{"seed":2},"async":true}`))
			r := e.submit(`{"kind":"characterize","params":{"seed":3}}`)
			readAll(t, r)
			if r.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("overload submit: %d, want 429", r.StatusCode)
			}
			if ra := r.Header.Get("Retry-After"); ra != tc.want {
				t.Errorf("Retry-After = %q, want %q", ra, tc.want)
			}
			close(g.release)
		})
	}
}

// TestDrainRejectsSubmitsWithConnectionClose: a submission landing in
// the window between SIGTERM (core draining) and the listener actually
// closing must get an immediate 503 telling the client to drop the
// connection — not attach to a job shutdown is about to cancel, and not
// hang waiting on a worker pool that is winding down.
func TestDrainRejectsSubmitsWithConnectionClose(t *testing.T) {
	g := newGateRunner()
	s := New(Config{Runner: g.run, JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Put one job in flight so Shutdown blocks mid-drain.
	r1, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"kind":"characterize","params":{"seed":1},"async":true}`))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, r1)
	<-g.started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Wait until the core is actually draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
			strings.NewReader(`{"kind":"characterize","params":{"seed":2}}`))
		if err != nil {
			t.Errorf("mid-drain submit failed: %v", err)
			return
		}
		readAll(t, r)
		if r.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("mid-drain submit: %d, want 503", r.StatusCode)
		}
		// Go's client consumes the hop-by-hop Connection header but
		// reports its effect: Close is true iff the server sent
		// "Connection: close".
		if !r.Close {
			t.Error("response did not carry Connection: close")
		}
		if rid := r.Header.Get("X-Request-Id"); rid == "" {
			t.Error("X-Request-Id header missing")
		}
	}()
	select {
	case <-done:
		// Responded while the in-flight job was still running: no hang.
	case <-time.After(5 * time.Second):
		t.Fatal("mid-drain submit hung instead of returning 503")
	}
	close(g.release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestJobStatsEndpoint: every job exposes its simulation-counter
// snapshot out of band at /v1/jobs/{id}/stats, at any lifecycle stage.
func TestJobStatsEndpoint(t *testing.T) {
	g := newGateRunner()
	e := newEnv(t, Config{Runner: g.run})

	resp := e.submit(`{"kind":"characterize","params":{"seed":3},"async":true}`)
	var v jobView
	json.Unmarshal(readAll(t, resp), &v)
	<-g.started

	r, err := http.Get(e.url + "/v1/jobs/" + v.ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, r)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("stats while running: %d %s", r.StatusCode, b)
	}
	var payload struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Stats  struct {
			Cells uint64          `json:"cells"`
			Total json.RawMessage `json:"total"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(b, &payload); err != nil {
		t.Fatalf("stats body %s: %v", b, err)
	}
	if payload.ID != v.ID || payload.Status != "running" || len(payload.Stats.Total) == 0 {
		t.Errorf("stats payload %s", b)
	}
	close(g.release)
	if r, _ := http.Get(e.url + "/v1/jobs/zzz/stats"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job stats: %d, want 404", r.StatusCode)
	}
}

// TestPprofGating: the profiling surface exists only when explicitly
// enabled.
func TestPprofGating(t *testing.T) {
	off := newEnv(t, Config{Runner: countingRunner(new(atomic.Int64), 0)})
	if r, err := http.Get(off.url + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else if readAll(t, r); r.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof: %d, want 404", r.StatusCode)
	}
	on := newEnv(t, Config{Runner: countingRunner(new(atomic.Int64), 0), EnablePprof: true})
	if r, err := http.Get(on.url + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else if b := readAll(t, r); r.StatusCode != http.StatusOK || !strings.Contains(string(b), "goroutine") {
		t.Errorf("pprof index with EnablePprof: %d %.80s", r.StatusCode, b)
	}
}

// TestTerminalJobRetention: terminal jobs are evicted by the MaxJobs cap
// and the JobTTL clock, so a long-running daemon's jobs map — and the
// result bodies it pins — stays bounded. The results themselves survive in
// the content-addressed cache.
func TestTerminalJobRetention(t *testing.T) {
	var runs atomic.Int64
	e := newEnv(t, Config{Runner: countingRunner(&runs, 0), JobTTL: 50 * time.Millisecond, MaxJobs: 2})

	for i := 1; i <= 4; i++ {
		resp := e.submit(fmt.Sprintf(`{"kind":"characterize","params":{"seed":%d}}`, i))
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
	}

	reap := func() int {
		e.s.mu.Lock()
		e.s.reapLocked(time.Now())
		n := len(e.s.jobs)
		e.s.mu.Unlock()
		return n
	}
	if n := reap(); n > 2 {
		t.Errorf("retained %d terminal jobs, want <= MaxJobs (2)", n)
	}

	// Grab a surviving id, let the TTL lapse, and verify full eviction.
	r, err := http.Get(e.url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []jobView `json:"jobs"`
	}
	json.Unmarshal(readAll(t, r), &listing)
	time.Sleep(60 * time.Millisecond)
	if n := reap(); n != 0 {
		t.Errorf("after TTL, retained %d jobs, want 0", n)
	}
	for _, v := range listing.Jobs {
		rs, err := http.Get(e.url + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, rs)
		if rs.StatusCode != http.StatusNotFound {
			t.Errorf("evicted job %s: got %d, want 404", v.ID, rs.StatusCode)
		}
	}

	// Eviction does not forget results: the identical request still hits.
	resp := e.submit(`{"kind":"characterize","params":{"seed":4}}`)
	readAll(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("resubmit after eviction X-Cache = %q, want hit", got)
	}
	if n := runs.Load(); n != 4 {
		t.Errorf("runner executed %d times, want 4", n)
	}
}

// TestListJobsPaginationSurvivesReaping pins the keyset-pagination
// contract under the janitor race: a page_token naming a job the janitor
// reaped between pages is still a valid position — the next page resumes
// strictly after it, skipping no survivor and replaying none. Malformed
// tokens are 400s, and the keyset compares admission sequences
// numerically, so ids that outgrow their zero-padding still order
// correctly.
func TestListJobsPaginationSurvivesReaping(t *testing.T) {
	var runs atomic.Int64
	e := newEnv(t, Config{QueueDepth: 16, JobWorkers: 1, Runner: countingRunner(&runs, 0)})
	submit := func(seed int) {
		t.Helper()
		r := e.submit(fmt.Sprintf(`{"kind":"table1","params":{"fast":true,"budget_sec":0.5,"seed":%d}}`, seed))
		b := readAll(t, r)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("submit seed %d: %d %s", seed, r.StatusCode, b)
		}
	}
	for seed := 1; seed <= 6; seed++ {
		submit(seed)
	}

	list := func(query string) (ids []string, next string) {
		t.Helper()
		resp, err := http.Get(e.url + "/v1/jobs?" + query)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q: %d %s", query, resp.StatusCode, body)
		}
		var out struct {
			Jobs []jobView `json:"jobs"`
			Next string    `json:"next_page_token"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		for _, v := range out.Jobs {
			ids = append(ids, v.ID)
		}
		return ids, out.Next
	}
	eq := func(got []string, want ...string) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("page = %v, want %v", got, want)
		}
	}

	ids, next := list("limit=2")
	eq(ids, "j00000001", "j00000002")
	if next != "j00000002" {
		t.Fatalf("next_page_token = %q, want j00000002", next)
	}

	// The janitor race: the token's own job and the one after it are
	// reaped between page fetches (exactly what reapLocked does).
	e.s.mu.Lock()
	delete(e.s.jobs, "j00000002")
	delete(e.s.jobs, "j00000003")
	e.s.mu.Unlock()

	ids, next = list("limit=2&page_token=j00000002")
	eq(ids, "j00000004", "j00000005")
	if next != "j00000005" {
		t.Fatalf("next_page_token after reap = %q, want j00000005", next)
	}
	ids, next = list("limit=2&page_token=" + next)
	eq(ids, "j00000006")
	if next != "" {
		t.Fatalf("final page carried next_page_token %q", next)
	}

	// Malformed tokens cannot denote a position: 400, field page_token.
	for _, tok := range []string{"garbage", "j12x", "00000004", "j", "j-3"} {
		resp, err := http.Get(e.url + "/v1/jobs?page_token=" + tok)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("token %q: status %d %s, want 400", tok, resp.StatusCode, body)
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		if env.Error.Code != "invalid_param" || env.Error.Field != "page_token" {
			t.Fatalf("token %q: error %+v, want invalid_param on page_token", tok, env.Error)
		}
	}

	// Numeric keyset: ids that outgrow the 8-digit padding must still
	// order by admission sequence ("j100000000" comes after "j99999999",
	// though it sorts before it lexically).
	e.s.mu.Lock()
	e.s.jobSeq = 99999998
	e.s.mu.Unlock()
	submit(7) // j99999999
	submit(8) // j100000000
	ids, _ = list("page_token=j99999999&limit=10")
	eq(ids, "j100000000")
}
