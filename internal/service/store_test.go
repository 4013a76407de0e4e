package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/diskstore"
	"repro/internal/experiments"
	"repro/internal/version"
)

// This file tests the persistent tier end to end at the service layer:
// a restarted server (new process, new memory caches, same store
// directory) must re-serve completed campaigns and completed cells from
// disk without re-executing anything, and a graceful shutdown must make
// every acknowledged write-behind Put durable.

// openStore opens a diskstore on dir with the engine version the server
// keys by, failing the test on error.
func openStore(t *testing.T, dir string) *diskstore.Store {
	t.Helper()
	s, err := diskstore.Open(dir, diskstore.Options{EngineVersion: version.Engine})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shutdown drains srv with a generous deadline so the write-behind
// queue is flushed (the Shutdown durability contract).
func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestStoreWarmRestart is the restart contract: run a campaign, restart
// the service against the same store directory (fresh server, fresh
// in-memory caches), re-submit, and require the response to be served
// from disk — zero cells executed — with a byte-identical body.
func TestStoreWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	dir := t.TempDir()
	req := `{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Equipartition","Dynamic"],"workers":2}}`

	store1 := openStore(t, dir)
	e1 := newEnv(t, Config{QueueDepth: 4, JobWorkers: 1, Store: store1})
	r1 := e1.submit(req)
	body1 := readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first run: %d %s", r1.StatusCode, body1)
	}
	key := r1.Header.Get("X-Cache-Key")
	if key == "" {
		t.Fatal("first run carried no X-Cache-Key")
	}
	shutdown(t, e1.s)
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a second server with nothing in memory, same directory.
	store2 := openStore(t, dir)
	defer store2.Close()
	if !store2.Contains(key) {
		t.Fatalf("campaign body %s not durable across restart (%+v)", key, store2.Stats())
	}
	e2 := newEnv(t, Config{QueueDepth: 4, JobWorkers: 1, Store: store2})
	r2 := e2.submit(req)
	body2 := readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("restarted run: %d %s", r2.StatusCode, body2)
	}
	if got := r2.Header.Get("X-Cache"); got != "disk" {
		t.Errorf("restarted X-Cache = %q, want disk", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("restarted body differs:\n%.200s\n%.200s", body1, body2)
	}
	if x := e2.s.metrics.cells.Executions.Load(); x != 0 {
		t.Errorf("restarted run executed %d cells, want 0", x)
	}
	if ds := store2.Stats(); ds.Hits == 0 {
		t.Errorf("store stats recorded no hit: %+v", ds)
	}

	// The disk hit was promoted into the memory tier: a third submit is a
	// plain memory hit without touching the store again.
	before := store2.Stats().Hits
	r3 := e2.submit(req)
	body3 := readAll(t, r3)
	if got := r3.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("post-promotion X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body3) {
		t.Error("post-promotion body differs")
	}
	if after := store2.Stats().Hits; after != before {
		t.Errorf("memory hit consulted the store (%d -> %d hits)", before, after)
	}
}

// TestStoreCellPromotion covers the cell-level tier: a restarted server
// running a *superset* campaign reuses its predecessor's cells from
// disk and executes only the genuinely new one, with the reuse visible
// in job views and /metrics.
func TestStoreCellPromotion(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	dir := t.TempDir()
	small := `{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Equipartition","Dynamic"],"workers":2}}`
	super := `{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Equipartition","Dynamic","Dyn-Aff"],"workers":2}}`

	store1 := openStore(t, dir)
	e1 := newEnv(t, Config{QueueDepth: 4, JobWorkers: 1, Store: store1})
	if r := e1.submit(small); r.StatusCode != http.StatusOK {
		t.Fatalf("small campaign: %d %s", r.StatusCode, readAll(t, r))
	} else {
		readAll(t, r)
	}
	shutdown(t, e1.s)
	store1.Close()

	// Cold reference for the superset on a storeless private server.
	cold := newEnv(t, Config{QueueDepth: 4, JobWorkers: 1})
	rc := cold.submit(super)
	coldBody := readAll(t, rc)
	if rc.StatusCode != http.StatusOK {
		t.Fatalf("cold superset: %d %s", rc.StatusCode, coldBody)
	}

	store2 := openStore(t, dir)
	defer store2.Close()
	e2 := newEnv(t, Config{QueueDepth: 4, JobWorkers: 1, Store: store2})
	r2 := e2.submit(super)
	body2 := readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("superset after restart: %d %s", r2.StatusCode, body2)
	}
	if !bytes.Equal(coldBody, body2) {
		t.Errorf("disk-promoted superset body differs from cold run:\n%.200s\n%.200s", coldBody, body2)
	}
	// Two cells came from disk, one executed; disk hits are not misses.
	c := &e2.s.metrics.cells
	if d, h, m, x := c.DiskHits.Load(), c.Hits.Load(), c.Misses.Load(), c.Executions.Load(); d != 2 || h != 0 || m != 1 || x != 1 {
		t.Errorf("cell accounting: disk=%d hits=%d misses=%d executions=%d, want 2/0/1/1", d, h, m, x)
	}

	// The job view reports the disk reuse.
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	resp, err := http.Get(e2.url + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(readAll(t, resp), &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range list.Jobs {
		if v.CellsTotal == 3 {
			found = true
			if v.CellsFromDisk != 2 || v.CellsDone != 3 {
				t.Errorf("superset job view: %+v, want done=3 from_disk=2", v)
			}
		}
	}
	if !found {
		t.Errorf("no 3-cell job in listing: %+v", list.Jobs)
	}
}

// TestShutdownFlushesAcknowledgedPuts is the drain-durability contract:
// any Put acknowledged onto the write-behind queue before Shutdown
// returns must be readable by a fresh store on the same directory —
// a SIGTERM (which triggers exactly this Shutdown) never loses
// completed work.
func TestShutdownFlushesAcknowledgedPuts(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	dir := t.TempDir()
	req := `{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Dynamic"],"workers":1}}`

	store1 := openStore(t, dir)
	e := newEnv(t, Config{QueueDepth: 4, JobWorkers: 1, Store: store1})
	r := e.submit(req)
	body := readAll(t, r)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("campaign: %d %s", r.StatusCode, body)
	}
	key := r.Header.Get("X-Cache-Key")
	// The 200 acknowledged the result; Shutdown must make it durable
	// even though the flusher runs behind the serving path.
	shutdown(t, e.s)
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := openStore(t, dir)
	defer reopened.Close()
	got, _, ok := reopened.Get(key)
	if !ok {
		t.Fatalf("acknowledged campaign body lost across shutdown (%+v)", reopened.Stats())
	}
	if !bytes.Equal(got, body) {
		t.Errorf("durable body differs from served body:\n%.200s\n%.200s", got, body)
	}
	// The cell result is durable too (1-policy compare = 1 cell + body).
	if st := reopened.Stats(); st.Entries < 2 {
		t.Errorf("store entries = %d, want >= 2 (body + cell): %+v", st.Entries, st)
	}
}

// TestStoreMetricsRendered pins the /metrics surface: the store series
// are present (and zero) even without a store, and populated with one.
func TestStoreMetricsRendered(t *testing.T) {
	e := newEnv(t, Config{QueueDepth: 4, JobWorkers: 1})
	resp, err := http.Get(e.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := readAll(t, resp)
	for _, series := range []string{
		"affinityd_store_hits_total 0",
		"affinityd_store_misses_total 0",
		"affinityd_store_puts_total 0",
		"affinityd_store_dropped_total 0",
		"affinityd_store_flushed_frames_total 0",
		"affinityd_store_evictions_total 0",
		"affinityd_store_corrupt_frames_total 0",
		"affinityd_store_truncated_bytes_total 0",
		"affinityd_store_entries 0",
		"affinityd_store_disk_bytes 0",
		"affinityd_store_budget_bytes 0",
		"affinityd_store_flush_queue_depth 0",
		"affinityd_cell_disk_hits_total 0",
		"affinityd_request_store_lookup_seconds_count 0",
	} {
		if !bytes.Contains(mb, []byte(series+"\n")) {
			t.Errorf("metrics missing zero-valued series %q", series)
		}
	}
}

// TestCancelKeepsCompletedCellsDurable is the write-behind loss-window
// regression: cells completed before a job is cancelled were Put onto the
// diskstore flusher queue — cancellation must not void those acknowledged
// writes. Cancel a campaign mid-grid, restart the service on the same
// directory, re-submit, and require every cell completed before the
// cancel to be served from disk without re-executing.
func TestCancelKeepsCompletedCellsDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	dir := t.TempDir()
	// 5 sequential cells (~tens of ms each): enough runway to cancel
	// after the first completes and before the last starts.
	req := `{"kind":"compare","params":{"fast":true,"reps":8,"mix":5,"policies":["Equipartition","Dynamic","Dyn-Aff","Dyn-Aff-Delay","Dyn-Aff-NoPri"],"workers":1},"async":true}`

	store1 := openStore(t, dir)
	e1 := newEnv(t, Config{QueueDepth: 4, JobWorkers: 1, Store: store1})
	r := e1.submit(req)
	ab := readAll(t, r)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", r.StatusCode, ab)
	}
	var accepted jobView
	if err := json.Unmarshal(ab, &accepted); err != nil {
		t.Fatal(err)
	}

	// Poll until at least one cell completed, then cancel immediately.
	poll := func() jobView {
		t.Helper()
		resp, err := http.Get(e1.url + "/v1/jobs/" + accepted.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v jobView
		if err := json.Unmarshal(readAll(t, resp), &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	deadline := time.Now().Add(30 * time.Second)
	var v jobView
	for {
		if v = poll(); v.CellsDone >= 1 || v.Status != "running" && v.Status != "queued" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no cell completed before deadline: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
	if v.Status != "running" {
		t.Fatalf("job reached %q before it could be cancelled mid-grid", v.Status)
	}
	del, err := http.NewRequest(http.MethodDelete, e1.url+"/v1/jobs/"+accepted.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(del)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, dresp)
	for {
		if v = poll(); v.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not stop after DELETE: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
	if v.Status != "canceled" {
		t.Fatalf("job status after DELETE = %q, want canceled (%+v)", v.Status, v)
	}
	completed := v.CellsDone
	if completed < 1 || completed >= v.CellsTotal {
		t.Fatalf("cancel landed outside the grid: %d/%d cells done", completed, v.CellsTotal)
	}

	// Restart: the cancelled job's completed cells must have survived the
	// write-behind queue across Shutdown+Close.
	shutdown(t, e1.s)
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}
	store2 := openStore(t, dir)
	defer store2.Close()
	if st := store2.Stats(); st.Entries < completed {
		t.Fatalf("reopened store has %d entries, want >= %d completed cells (%+v)", st.Entries, completed, st)
	}

	e2 := newEnv(t, Config{QueueDepth: 4, JobWorkers: 1, Store: store2})
	r2 := e2.submit(`{"kind":"compare","params":{"fast":true,"reps":8,"mix":5,"policies":["Equipartition","Dynamic","Dyn-Aff","Dyn-Aff-Delay","Dyn-Aff-NoPri"],"workers":1}}`)
	body2 := readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit after restart: %d %s", r2.StatusCode, body2)
	}
	c := &e2.s.metrics.cells
	if d, x := c.DiskHits.Load(), c.Executions.Load(); int(d) < completed || int(d+x) != 5 {
		t.Errorf("resubmit accounting: disk=%d executions=%d, want disk >= %d and disk+exec = 5", d, x, completed)
	}
}

// TestStoreBodyPromotionKeepsCost: a submit answered from the disk tier
// promotes the body into the memory tier under the cost the store
// recorded, not as a free entry.
func TestStoreBodyPromotionKeepsCost(t *testing.T) {
	const cost = 55555
	camp, _ := experiments.CampaignByKind("table1")
	params, err := camp.Normalize(experiments.CampaignParams{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	key, err := cacheKey("table1", params)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"seeded":"body"}`)
	store := openStore(t, t.TempDir())
	defer store.Close()
	store.Put(key, body, cost)
	if err := store.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	e := newEnv(t, Config{Store: store})
	r := e.submit(`{"kind":"table1","params":{"fast":true}}`)
	got := readAll(t, r)
	if r.StatusCode != http.StatusOK || r.Header.Get("X-Cache") != "disk" || !bytes.Equal(got, body) {
		t.Fatalf("submit: %d X-Cache %q %q, want 200 disk %q", r.StatusCode, r.Header.Get("X-Cache"), got, body)
	}
	if b, c, ok := e.s.Cache().GetCost(key); !ok || !bytes.Equal(b, body) || c != cost {
		t.Errorf("promoted body %q cost %d ok=%v, want cost %d", b, c, ok, cost)
	}
}
