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
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/resultcache"
	"repro/internal/version"
)

// registerFleetWorker POSTs one worker registration to the service's own
// mux (the coordinator's fleet endpoints are mounted there).
func registerFleetWorker(t *testing.T, e *testEnv, url string, capacity int) string {
	t.Helper()
	body, _ := json.Marshal(fleet.RegisterRequest{URL: url, Capacity: capacity, EngineVersion: version.Engine})
	resp, err := http.Post(e.url+fleet.PathRegister, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ack fleet.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d, decode err %v", url, resp.StatusCode, err)
	}
	return ack.ID
}

// TestFleetBudgetExhaustedFallsBackLocal pins the re-dispatch budget's
// end-to-end contract: with every fleet worker dead and a one-unit
// budget, the campaign spends its single retry, stops re-dispatching,
// executes every cell locally — with a final body byte-identical to a
// fleet-less daemon's — and reports budget_exhausted in the job view and
// the exhaustion counter in /metrics.
func TestFleetBudgetExhaustedFallsBackLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	coord := fleet.NewCoordinator(fleet.Config{
		Backoff:    time.Millisecond,
		HedgeDelay: time.Minute, // retries only; hedging stays out of the picture
	})
	e := newEnv(t, Config{Fleet: coord, HedgeBudget: 1})
	plain := newEnv(t, Config{}) // no fleet: the reference for byte-identity

	// Two dead workers: both connection-refused on dispatch. Capacity is
	// irrelevant — they never accept anything.
	registerFleetWorker(t, e, "http://127.0.0.1:1", 16)
	registerFleetWorker(t, e, "http://127.0.0.1:2", 16)

	campaign := `{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Equipartition","Dynamic"],"workers":2}}`
	resp := e.submit(campaign)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign with dead fleet: %d %s", resp.StatusCode, body)
	}

	// Byte-identity: budget exhaustion degraded to local execution, and
	// local execution is the same merge the fleet-less daemon performs.
	ref := plain.submit(campaign)
	refBody := readAll(t, ref)
	if ref.StatusCode != http.StatusOK {
		t.Fatalf("fleet-less reference: %d %s", ref.StatusCode, refBody)
	}
	if !bytes.Equal(body, refBody) {
		t.Errorf("budget-exhausted body differs from fleet-less run:\n%.200s\n%.200s", body, refBody)
	}

	// The exhaustion is reported, not hidden: job view and metrics.
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	jl, err := http.Get(e.url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readAll(t, jl), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 {
		t.Fatalf("jobs listed: %d, want 1", len(list.Jobs))
	}
	if !list.Jobs[0].BudgetExhausted {
		t.Errorf("job view budget_exhausted = false, want true: %+v", list.Jobs[0])
	}
	// The budget is the ceiling on overshoot: across the whole campaign,
	// retries plus hedges never exceed the single budgeted unit (they can
	// total zero — with both cells racing, the sole unit can be claimed
	// by a relaunch that then finds every worker already dropped).
	if got := coord.Stats.Retries.Load() + coord.Stats.Hedges.Load(); got > 1 {
		t.Errorf("fleet retries+hedges = %d, want <= the budgeted 1", got)
	}
	mr, err := http.Get(e.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readAll(t, mr))
	if !strings.Contains(metrics, "affinityd_fleet_budget_exhausted_total 1") {
		t.Errorf("metrics missing affinityd_fleet_budget_exhausted_total 1:\n%s", metrics)
	}

	// A fleet-less daemon never reports the field at all (omitempty): the
	// raw listing JSON must not mention it.
	pl, err := http.Get(plain.url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if raw := string(readAll(t, pl)); strings.Contains(raw, "budget_exhausted") {
		t.Errorf("fleet-less job listing leaks budget_exhausted:\n%s", raw)
	}
}

// TestWorkerMemoryHitKeepsCost pins the ExecuteResponse.ExecNs contract
// for a worker's memory tier: a cell the worker already holds comes back
// with the cost recorded alongside its bytes, and the coordinator files
// it under that cost — not under the dispatch round trip.
func TestWorkerMemoryHitKeepsCost(t *testing.T) {
	const seededCost = 4242
	params := experiments.CampaignParams{Fast: true, Replications: 1, Mix: 5, Policies: []string{"Equipartition"}}
	plan, err := experiments.Cells("compare", params)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 1 {
		t.Fatalf("plan has %d cells, want 1", len(plan.Cells))
	}
	key := resultcache.Key(plan.Cells[0].KeyKind, plan.Cells[0].KeyParams, version.Engine)
	partial := []byte(`{"jobs":[{"app":"MATRIX","mean_rt_sec":1}]}`)

	coordCache := resultcache.New(1 << 20)
	e := newEnv(t, Config{
		Fleet:     fleet.NewCoordinator(fleet.Config{HedgeDelay: time.Minute}),
		CellCache: coordCache,
	})
	workerCache := resultcache.New(1 << 20)
	workerCache.PutCost(key, partial, seededCost)
	w := fleet.NewWorker(fleet.WorkerConfig{Coordinator: e.url, Capacity: 4, Cache: workerCache, Heartbeat: time.Minute})
	mux := http.NewServeMux()
	w.RegisterHandlers(mux)
	wts := httptest.NewServer(mux)
	t.Cleanup(wts.Close)
	w.Start(wts.URL)
	t.Cleanup(w.Stop)

	resp := e.submit(`{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Equipartition"]}}`)
	if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign: %d %s", resp.StatusCode, body)
	}
	if got := w.Stats.CacheHits.Load(); got != 1 {
		t.Fatalf("worker cache hits = %d, want 1 (the seeded cell)", got)
	}
	body, cost, ok := coordCache.GetCost(key)
	if !ok || !bytes.Equal(body, partial) {
		t.Fatalf("coordinator cell cache holds %q (ok=%v), want the worker's bytes", body, ok)
	}
	if cost != seededCost {
		t.Errorf("coordinator filed the cell at cost %d, want the worker's recorded %d", cost, seededCost)
	}
}

// TestWorkersPaginationAndDetail drives GET /v1/workers through the
// /v1/jobs listing conventions — keyset pagination by worker id, status
// filters, envelope-wrapped parameter errors — and GET /v1/workers/{id}
// through found/missing/non-coordinator.
func TestWorkersPaginationAndDetail(t *testing.T) {
	coord := fleet.NewCoordinator(fleet.Config{})
	e := newEnv(t, Config{Fleet: coord})

	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		ids = append(ids, registerFleetWorker(t, e, fmt.Sprintf("http://worker-%d:7101", i), 2))
	}

	type listing struct {
		APIVersion    string             `json:"api_version"`
		Coordinator   bool               `json:"coordinator"`
		Workers       []fleet.WorkerView `json:"workers"`
		NextPageToken string             `json:"next_page_token"`
	}
	getList := func(query string) listing {
		t.Helper()
		resp, err := http.Get(e.url + "/v1/workers" + query)
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/workers%s: %d %s", query, resp.StatusCode, b)
		}
		var l listing
		if err := json.Unmarshal(b, &l); err != nil {
			t.Fatal(err)
		}
		if l.APIVersion != api.Version || !l.Coordinator {
			t.Fatalf("listing header wrong: %+v", l)
		}
		return l
	}

	// Walk the full keyset in pages of 2: 2 + 2 + 1, ids strictly
	// ascending across the walk, token absent on the last page.
	var walked []string
	token := ""
	for page := 0; ; page++ {
		q := "?limit=2"
		if token != "" {
			q += "&page_token=" + token
		}
		l := getList(q)
		if len(l.Workers) > 2 {
			t.Fatalf("page %d: %d workers, limit 2", page, len(l.Workers))
		}
		for _, w := range l.Workers {
			if n := len(walked); n > 0 && w.ID <= walked[n-1] {
				t.Fatalf("page %d: id %s out of order after %s", page, w.ID, walked[n-1])
			}
			walked = append(walked, w.ID)
		}
		if l.NextPageToken == "" {
			break
		}
		token = l.NextPageToken
		if page > 5 {
			t.Fatal("pagination never terminated")
		}
	}
	if len(walked) != 5 {
		t.Fatalf("walked %d workers, want 5: %v", len(walked), walked)
	}

	// Status filters: every worker is idle (nothing dispatched).
	if l := getList("?status=idle"); len(l.Workers) != 5 {
		t.Errorf("status=idle: %d workers, want 5", len(l.Workers))
	}
	if l := getList("?status=busy"); len(l.Workers) != 0 {
		t.Errorf("status=busy: %d workers, want 0", len(l.Workers))
	}

	// Parameter errors come back in the standard envelope with the
	// offending field named.
	for _, tc := range []struct{ query, field string }{
		{"?status=frobnicate", "status"},
		{"?limit=1001", "limit"},
		{"?limit=0", "limit"},
		{"?page_token=not-a-worker-id", "page_token"},
	} {
		resp, err := http.Get(e.url + "/v1/workers" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.query, resp.StatusCode)
			continue
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("%s: not an envelope: %s", tc.query, b)
		}
		if env.Error.Code != "invalid_param" || env.Error.Field != tc.field {
			t.Errorf("%s: error = %+v, want invalid_param on %s", tc.query, env.Error, tc.field)
		}
	}

	// Detail: a registered worker's row plus its placement signals.
	resp, err := http.Get(e.url + "/v1/workers/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	b := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("worker detail: %d %s", resp.StatusCode, b)
	}
	var d fleet.WorkerDetail
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if d.APIVersion != api.Version || d.ID != ids[0] || d.URL != "http://worker-0:7101" {
		t.Errorf("detail = %+v, want id %s for worker-0", d, ids[0])
	}
	if d.FailurePenalty != 0 || d.RTTCount != 0 {
		t.Errorf("fresh worker signals: penalty=%v rtt_count=%d, want zeros", d.FailurePenalty, d.RTTCount)
	}

	// Unknown (well-formed) id: 404 envelope.
	resp, err = http.Get(e.url + "/v1/workers/w000000000000")
	if err != nil {
		t.Fatal(err)
	}
	if b := readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown worker: %d %s, want 404", resp.StatusCode, b)
	}

	// Non-coordinator daemon: the listing endpoint exists (role probe),
	// the detail endpoint 404s.
	plain := newEnv(t, Config{})
	resp, err = http.Get(plain.url + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var l listing
	if err := json.Unmarshal(readAll(t, resp), &l); err != nil {
		t.Fatal(err)
	}
	if l.Coordinator || len(l.Workers) != 0 {
		t.Errorf("non-coordinator listing = %+v, want coordinator=false, no workers", l)
	}
	resp, err = http.Get(plain.url + "/v1/workers/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("non-coordinator detail: %d, want 404", resp.StatusCode)
	}
}

// TestPeerFillServesFailedDispatch pins the one peer read the fleet
// keeps: when every dispatch attempt fails, runCells asks the workers'
// tiers before executing locally. A worker that refuses to execute but
// holds the cell serves it; the event names that worker with placement
// "peer_fill", and the coordinator files the bytes under the worker's
// cost.
func TestPeerFillServesFailedDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	const seededCost = 4242
	params := experiments.CampaignParams{Fast: true, Replications: 1, Mix: 5, Policies: []string{"Equipartition"}}
	plan, err := experiments.Cells("compare", params)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Cells) != 1 {
		t.Fatalf("plan has %d cells, want 1", len(plan.Cells))
	}
	key := resultcache.Key(plan.Cells[0].KeyKind, plan.Cells[0].KeyParams, version.Engine)
	partial, err := plan.Cells[0].RunBody(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST "+fleet.PathExecute, func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, http.StatusInternalServerError, "internal", "", "refusing to execute")
	})
	mux.HandleFunc("GET "+fleet.PathCells+"{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("key") != key {
			api.WriteError(w, http.StatusNotFound, "not_found", "", "no such cell")
			return
		}
		w.Header().Set("X-Exec-Cost-Ns", fmt.Sprint(seededCost))
		w.Write(partial)
	})
	fake := httptest.NewServer(mux)
	t.Cleanup(fake.Close)

	coordCache := resultcache.New(1 << 20)
	e := newEnv(t, Config{
		Fleet:     fleet.NewCoordinator(fleet.Config{Backoff: time.Millisecond, HedgeDelay: time.Minute}),
		CellCache: coordCache,
	})
	registerFleetWorker(t, e, fake.URL, 4)

	campaign := `{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Equipartition"]}`
	resp := e.submit(campaign + `,"async":true}`)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, raw)
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	er, err := http.Get(e.url + v.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	var events []jobEvent
	dec := json.NewDecoder(er.Body)
	for {
		var ev jobEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	er.Body.Close()
	if len(events) != 2 || events[1].Type != "done" {
		t.Fatalf("events = %+v, want one cell event and done", events)
	}
	if ev := events[0]; ev.Worker != fake.URL || ev.Placement != "peer_fill" {
		t.Errorf("cell event worker=%q placement=%q, want %q peer_fill", ev.Worker, ev.Placement, fake.URL)
	}

	rr, err := http.Get(e.url + events[1].ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, rr)
	ref := newEnv(t, Config{}).submit(campaign + `}`)
	if refBody := readAll(t, ref); !bytes.Equal(body, refBody) {
		t.Errorf("peer-filled body differs from fleet-less run:\n%.200s\n%.200s", body, refBody)
	}
	if b, cost, ok := coordCache.GetCost(key); !ok || !bytes.Equal(b, partial) || cost != seededCost {
		t.Errorf("coordinator cell cache: %.60q cost %d ok=%v, want the worker's bytes at cost %d", b, cost, ok, seededCost)
	}
	mr, err := http.Get(e.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if metrics := string(readAll(t, mr)); !strings.Contains(metrics, "\naffinityd_fleet_worker_fills_total 1\n") {
		t.Errorf("metrics missing affinityd_fleet_worker_fills_total 1:\n%s", metrics)
	}
}

// TestFleetBatchAccounting drives fresh analytic campaigns through a
// coordinator with a disk store and two in-process workers, and holds
// the batch dispatch to the service's accounting: each body equals a
// fleet-less daemon's byte for byte; every dispatched cell resolves as a
// remote cell, a discarded duplicate or a failure; every cell misses
// once and executes once; each cell's tiers are probed once (the store
// misses each cell and the campaign body, nothing more); every cell
// event names the worker that ran it; and the misses travel in as many
// batches as the campaign's cell workers.
func TestFleetBatchAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	store := openStore(t, t.TempDir())
	t.Cleanup(func() { store.Close() })
	coord := fleet.NewCoordinator(fleet.Config{HedgeDelay: time.Minute})
	e := newEnv(t, Config{Fleet: coord, Store: store})
	plain := newEnv(t, Config{})
	for i := 0; i < 2; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{Coordinator: e.url, Cache: resultcache.New(1 << 20), Heartbeat: time.Minute})
		mux := http.NewServeMux()
		w.RegisterHandlers(mux)
		wts := httptest.NewServer(mux)
		t.Cleanup(wts.Close)
		w.Start(wts.URL)
		t.Cleanup(w.Stop)
	}
	if n := coord.LiveWorkers(); n != 2 {
		t.Fatalf("%d of 2 workers registered", n)
	}

	const workers = 2
	cells := &e.s.metrics.cells
	for _, campaign := range []string{
		`{"kind":"compare","params":{"fast":true,"seed":901,"engine":"analytic","policies":["Equipartition","Dynamic","Dyn-Aff","Dyn-Aff-NoPri"],"workers":2}}`,
		`{"kind":"futuresim","params":{"fast":true,"seed":902,"engine":"analytic","policies":["Dynamic","Dyn-Aff"],"products":[1,16,64,256,1024],"workers":2}}`,
	} {
		misses0, execs0, storeMisses0 := cells.Misses.Load(), cells.Executions.Load(), store.Stats().Misses
		batches0 := coord.Stats.Batches.Load()
		resp := e.submit(campaign)
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet campaign: %d %s", resp.StatusCode, body)
		}
		ref := plain.submit(campaign)
		if refBody := readAll(t, ref); !bytes.Equal(body, refBody) {
			t.Errorf("fleet body differs from fleet-less run:\n%.200s\n%.200s", body, refBody)
		}

		jobs := e.listJobs() // in submission order
		v := jobs[len(jobs)-1]
		n := uint64(v.CellsTotal)
		if v.CellsRemote != v.CellsTotal {
			t.Errorf("job view: %d of %d cells remote, want all", v.CellsRemote, v.CellsTotal)
		}
		if n < 2*workers {
			t.Fatalf("campaign has %d cells; want at least %d so every batch carries two", n, 2*workers)
		}
		if m, x := cells.Misses.Load()-misses0, cells.Executions.Load()-execs0; m != n || x != n {
			t.Errorf("cell misses=%d executions=%d, want both %d (the cells)", m, x, n)
		}
		if got := store.Stats().Misses - storeMisses0; got != n+1 {
			t.Errorf("store misses = %d, want %d: one probe per cell and one for the body", got, n+1)
		}
		if got := coord.Stats.Batches.Load() - batches0; got != workers {
			t.Errorf("batches = %d, want %d (one per cell worker)", got, workers)
		}
		er, err := http.Get(e.url + v.EventsURL)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(er.Body)
		events := 0
		for {
			var ev jobEvent
			if err := dec.Decode(&ev); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if ev.Type != "cell" {
				continue
			}
			events++
			if ev.Worker == "" || ev.Cache != "miss" {
				t.Errorf("cell event %d (%s): worker %q cache %q, want a worker and a miss", ev.Index, ev.Cell, ev.Worker, ev.Cache)
			}
		}
		er.Body.Close()
		if uint64(events) != n {
			t.Errorf("%d cell events, want %d", events, n)
		}
	}
	st := &coord.Stats
	if d, r := st.Dispatches.Load(), st.RemoteCells.Load()+st.Duplicates.Load()+st.Failures.Load(); d != r {
		t.Errorf("dispatches %d != remote + duplicates + failures %d", d, r)
	}
	if st.PlacementDecisions.Load() != st.Batches.Load() {
		t.Errorf("placement decisions %d != batches %d", st.PlacementDecisions.Load(), st.Batches.Load())
	}
}
