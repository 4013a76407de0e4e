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

// testEnv wires a Server behind an HTTP listener.
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

// oneCell is a campaign request whose plan is a single analytic cell
// (a few milliseconds), so in a gated test one cell start is one job.
func oneCell(seed int, async bool) string {
	return fmt.Sprintf(`{"kind":"compare","params":{"engine":"analytic","mix":5,"policies":["Dynamic"],"seed":%d},"async":%t}`, seed, async)
}

// countCells is an execCell that counts executions and runs the real
// cell.
func countCells(n *atomic.Int64) func(context.Context, *experiments.Cell) ([]byte, error) {
	return func(ctx context.Context, c *experiments.Cell) ([]byte, error) {
		n.Add(1)
		return c.RunBody(ctx)
	}
}

// gate blocks each executing cell until released (or cancelled),
// reporting its start, then runs the real cell.
type gate struct {
	started chan string
	release chan struct{}
}

func newGate() *gate {
	return &gate{started: make(chan string, 16), release: make(chan struct{})}
}

func (g *gate) exec(ctx context.Context, c *experiments.Cell) ([]byte, error) {
	g.started <- c.ID
	select {
	case <-g.release:
		return c.RunBody(ctx)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// listJobs returns GET /v1/jobs's job views.
func (e *testEnv) listJobs() []jobView {
	e.t.Helper()
	r, err := http.Get(e.url + "/v1/jobs")
	if err != nil {
		e.t.Fatal(err)
	}
	var listing struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.Unmarshal(readAll(e.t, r), &listing); err != nil {
		e.t.Fatal(err)
	}
	return listing.Jobs
}

// requireCellPath checks the cell-path invariant once every job has
// finished: each cell miss was exactly one execution, the executions are
// the n cells execCell counted, and every finished job's view accounts
// for all of its plan's cells.
func (e *testEnv) requireCellPath(n int64) {
	e.t.Helper()
	c := &e.s.metrics.cells
	if m, x := c.Misses.Load(), c.Executions.Load(); m != x || x != uint64(n) {
		e.t.Errorf("cell misses=%d executions=%d, want both %d (the cells executed)", m, x, n)
	}
	done := 0
	for _, v := range e.listJobs() {
		if v.Status != "done" {
			continue
		}
		done++
		if v.CellsTotal == 0 || v.CellsDone != v.CellsTotal {
			e.t.Errorf("job %s: cells_done=%d cells_total=%d, want equal and > 0", v.ID, v.CellsDone, v.CellsTotal)
		}
	}
	if done == 0 {
		e.t.Error("no finished job to check")
	}
}

func TestSubmitCacheHitByteIdentical(t *testing.T) {
	var cells atomic.Int64
	e := newEnv(t, Config{execCell: countCells(&cells)})

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
	// One run of the fast table1 plan executes its 9 cells.
	if n := cells.Load(); n != 9 {
		t.Errorf("executed %d cells, want 9", n)
	}
	if st := e.s.bodies.Memory.Stats(); st.Hits != 1 {
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
	e.requireCellPath(cells.Load())
}

func TestSubmitValidation(t *testing.T) {
	e := newEnv(t, Config{})
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
	g := newGate()
	e := newEnv(t, Config{execCell: g.exec, JobWorkers: 4, QueueDepth: 8})

	req := oneCell(7, false)
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
		t.Errorf("second cell execution started (%s); singleflight failed", k)
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
	g := newGate()
	e := newEnv(t, Config{execCell: g.exec, JobWorkers: 1, QueueDepth: 1, RetryAfter: 3 * time.Second})

	// Occupy the single worker.
	go e.submit(oneCell(1, false))
	<-g.started
	// Fill the single queue slot (async so we don't block).
	r2 := e.submit(oneCell(2, true))
	readAll(t, r2)
	if r2.StatusCode != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %d", r2.StatusCode)
	}
	// Third distinct request must bounce.
	r3 := e.submit(oneCell(3, false))
	b3 := readAll(t, r3)
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit: got %d (%s), want 429", r3.StatusCode, b3)
	}
	if ra := r3.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want 3", ra)
	}
	// An identical duplicate of the RUNNING job still dedups — no queue
	// slot needed, no 429.
	r4 := e.submit(oneCell(1, true))
	readAll(t, r4)
	if r4.StatusCode != http.StatusAccepted {
		t.Errorf("dedup-during-overload: got %d, want 202", r4.StatusCode)
	}
	close(g.release)
}

func TestAsyncLifecycleAndResult(t *testing.T) {
	g := newGate()
	e := newEnv(t, Config{execCell: g.exec})

	resp := e.submit(oneCell(9, true))
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
	cold := newEnv(t, Config{})
	rc := cold.submit(oneCell(9, false))
	want := readAll(t, rc)
	if r.StatusCode != 200 || rc.StatusCode != 200 || !bytes.Equal(body, want) {
		t.Errorf("result fetch: %d %s, want the cold run's %d %s", r.StatusCode, body, rc.StatusCode, want)
	}
	// Unknown job id.
	if r, _ := get("/v1/jobs/zzz"); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: got %d, want 404", r.StatusCode)
	}
}

func TestCancelRunningJob(t *testing.T) {
	g := newGate()
	e := newEnv(t, Config{execCell: g.exec})

	resp := e.submit(oneCell(4, true))
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
	g := newGate()
	e := newEnv(t, Config{execCell: g.exec})

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/campaigns",
		strings.NewReader(oneCell(6, false)))
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
	// The gated cell observes ctx cancellation and the job lands in canceled.
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
	g := newGate()
	s := New(Config{execCell: g.exec, JobWorkers: 1, QueueDepth: 4})
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
	r1 := post(oneCell(1, true))
	var running jobView
	json.Unmarshal(readAll(t, r1), &running)
	<-g.started
	// ...and one queued.
	r2 := post(oneCell(2, true))
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
	r3 := post(oneCell(3, false))
	readAll(t, r3)
	if r3.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submit: got %d, want 503", r3.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	e := newEnv(t, Config{})

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
		readAll(t, e.submit(`{"kind":"table1","params":{"fast":true,"budget_sec":0.5}}`))
	}
	// The engine counters fold the one executed job's collector.
	jobs := e.listJobs()
	if len(jobs) != 1 {
		t.Fatalf("jobs = %+v, want the one miss", jobs)
	}
	rs, err := http.Get(e.url + "/v1/jobs/" + jobs[0].ID + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		Stats struct {
			Total struct {
				Runs          uint64 `json:"runs"`
				Reallocations uint64 `json:"reallocations"`
			} `json:"total"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(readAll(t, rs), &job); err != nil {
		t.Fatal(err)
	}
	sim := job.Stats.Total
	if sim.Runs == 0 || sim.Reallocations == 0 {
		t.Errorf("job stats runs=%d reallocations=%d, want both > 0", sim.Runs, sim.Reallocations)
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
		fmt.Sprintf("affinityd_sim_runs_total %d", sim.Runs),
		fmt.Sprintf("affinityd_sim_reallocations_total %d", sim.Reallocations),
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
	e := newEnv(t, Config{JobWorkers: 2, QueueDepth: 64})

	for i := 1; i <= 60; i++ {
		resp := e.submit(oneCell(i, true))
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
	stubborn := func(ctx context.Context, c *experiments.Cell) ([]byte, error) {
		started <- struct{}{}
		<-release // slow to observe cancellation, like a real campaign mid-cell
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return c.RunBody(ctx)
	}
	e := newEnv(t, Config{execCell: stubborn, JobWorkers: 1})

	// Client A is the sole waiter; disconnecting cancels the job, but the
	// stubborn cell keeps it occupying the singleflight slot.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/campaigns",
		strings.NewReader(oneCell(11, false)))
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
	go func() { done <- e.submit(oneCell(11, false)) }()
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
			g := newGate()
			e := newEnv(t, Config{execCell: g.exec, JobWorkers: 1, QueueDepth: 1, RetryAfter: tc.cfg})
			// Occupy the worker and the single queue slot.
			go e.submit(oneCell(1, false))
			<-g.started
			readAll(t, e.submit(oneCell(2, true)))
			r := e.submit(oneCell(3, false))
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
	g := newGate()
	s := New(Config{execCell: g.exec, JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Put one job in flight so Shutdown blocks mid-drain.
	r1, err := http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(oneCell(1, true)))
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
			strings.NewReader(oneCell(2, false)))
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
	g := newGate()
	e := newEnv(t, Config{execCell: g.exec})

	resp := e.submit(oneCell(3, true))
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

// TestJobStatsCountsCells: a job's stats count the cells whose simulation
// stats were folded in, so a fresh job's stats.cells equals its view's
// cells_total — one for a one-cell analytic compare (whose cell runs five
// replications), nine for a fast table1.
func TestJobStatsCountsCells(t *testing.T) {
	for _, tc := range []struct {
		body  string
		cells int
	}{
		{oneCell(1, false), 1},
		{`{"kind":"table1","params":{"fast":true,"budget_sec":0.5}}`, 9},
	} {
		e := newEnv(t, Config{})
		if resp := e.submit(tc.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.body, resp.StatusCode, readAll(t, resp))
		} else {
			readAll(t, resp)
		}
		jobs := e.listJobs()
		if len(jobs) != 1 || jobs[0].Status != "done" {
			t.Fatalf("%s: jobs %+v", tc.body, jobs)
		}
		r, err := http.Get(e.url + "/v1/jobs/" + jobs[0].ID + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var payload struct {
			Stats struct {
				Cells uint64 `json:"cells"`
			} `json:"stats"`
		}
		if err := json.Unmarshal(readAll(t, r), &payload); err != nil {
			t.Fatal(err)
		}
		if got := payload.Stats.Cells; got != uint64(jobs[0].CellsTotal) || got != uint64(tc.cells) {
			t.Errorf("%s: stats.cells = %d, cells_total = %d, want both %d",
				tc.body, got, jobs[0].CellsTotal, tc.cells)
		}
	}
}

// TestPprofGating: the profiling surface exists only when explicitly
// enabled.
func TestPprofGating(t *testing.T) {
	off := newEnv(t, Config{})
	if r, err := http.Get(off.url + "/debug/pprof/"); err != nil {
		t.Fatal(err)
	} else if readAll(t, r); r.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without EnablePprof: %d, want 404", r.StatusCode)
	}
	on := newEnv(t, Config{EnablePprof: true})
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
	var cells atomic.Int64
	e := newEnv(t, Config{execCell: countCells(&cells), JobTTL: 50 * time.Millisecond, MaxJobs: 2})

	for i := 1; i <= 4; i++ {
		resp := e.submit(oneCell(i, false))
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
	survivors := e.listJobs()
	e.requireCellPath(cells.Load())
	time.Sleep(60 * time.Millisecond)
	if n := reap(); n != 0 {
		t.Errorf("after TTL, retained %d jobs, want 0", n)
	}
	for _, v := range survivors {
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
	resp := e.submit(oneCell(4, false))
	readAll(t, resp)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("resubmit after eviction X-Cache = %q, want hit", got)
	}
	// Four one-cell jobs, one cell each.
	if n := cells.Load(); n != 4 {
		t.Errorf("executed %d cells, want 4", n)
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
	e := newEnv(t, Config{QueueDepth: 16, JobWorkers: 1})
	submit := func(seed int) {
		t.Helper()
		r := e.submit(oneCell(seed, false))
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
