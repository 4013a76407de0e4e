package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
)

// TestCellReuseAcrossCampaigns is the tentpole's service-level contract:
// a superset campaign re-executes only the cells its predecessor never
// ran, the reuse is visible in the job view and metrics, and the merged
// body is byte-identical to a cold run of the same superset.
func TestCellReuseAcrossCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	e := newEnv(t, Config{})    // real registry => cell execution path
	cold := newEnv(t, Config{}) // private caches: the cold-run reference

	small := `{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Equipartition","Dynamic"],"workers":2}}`
	super := `{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Equipartition","Dynamic","Dyn-Aff"],"workers":2}}`

	r1 := e.submit(small)
	b1 := readAll(t, r1)
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("small campaign: %d %s", r1.StatusCode, b1)
	}
	if h, m, x := e.s.metrics.cells.Hits.Load(), e.s.metrics.cells.Misses.Load(), e.s.metrics.cells.Executions.Load(); h != 0 || m != 2 || x != 2 {
		t.Errorf("after small campaign: hits=%d misses=%d executions=%d, want 0/2/2", h, m, x)
	}

	r2 := e.submit(super)
	b2 := readAll(t, r2)
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("superset campaign: %d %s", r2.StatusCode, b2)
	}
	if got := r2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("superset X-Cache = %q, want miss (different campaign key)", got)
	}
	// The superset's (mix=5, Equipartition) and (mix=5, Dynamic) cells
	// were already cached by the small campaign; only Dyn-Aff executes.
	if h, m, x := e.s.metrics.cells.Hits.Load(), e.s.metrics.cells.Misses.Load(), e.s.metrics.cells.Executions.Load(); h != 2 || m != 3 || x != 3 {
		t.Errorf("after superset: hits=%d misses=%d executions=%d, want 2/3/3", h, m, x)
	}

	// The reuse is visible on the job view.
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	resp, err := http.Get(e.url + "/v1/jobs")
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
			if v.CellsDone != 3 || v.CellsFromCache != 2 {
				t.Errorf("superset job cells: %+v, want done=3 from_cache=2", v)
			}
		}
	}
	if !found {
		t.Errorf("no 3-cell job in listing: %+v", list.Jobs)
	}

	// Reused cells must not change a single byte of the merged result.
	rc := cold.submit(super)
	bc := readAll(t, rc)
	if rc.StatusCode != http.StatusOK {
		t.Fatalf("cold superset: %d %s", rc.StatusCode, bc)
	}
	if !bytes.Equal(b2, bc) {
		t.Errorf("superset body with reused cells differs from cold run:\n%.200s\n%.200s", b2, bc)
	}
}

// TestJobEventsStream checks GET /v1/jobs/{id}/events delivers one NDJSON
// cell event per completed cell and a terminal event, and that a stream
// opened after completion replays the identical log.
func TestJobEventsStream(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	e := newEnv(t, Config{})
	resp := e.submit(`{"kind":"compare","params":{"fast":true,"reps":1,"mix":5,"policies":["Dynamic"],"workers":1},"async":true}`)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, body)
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.APIVersion != apiVersion || v.Cache != "miss" || v.RequestID == "" || v.EventsURL == "" {
		t.Errorf("job view missing api fields: %+v", v)
	}

	readEvents := func() []jobEvent {
		er, err := http.Get(e.url + v.EventsURL)
		if err != nil {
			t.Fatal(err)
		}
		defer er.Body.Close()
		if ct := er.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("events Content-Type = %q", ct)
		}
		var events []jobEvent
		sc := bufio.NewScanner(er.Body)
		for sc.Scan() {
			var ev jobEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad event line %q: %v", sc.Text(), err)
			}
			events = append(events, ev)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return events
	}

	events := readEvents() // blocks until the terminal event closes the stream
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2 (one cell + terminal): %+v", len(events), events)
	}
	cell, term := events[0], events[1]
	if cell.Type != "cell" || cell.Cache != "miss" || cell.Cell != "mix=5/policy=Dynamic" || cell.Index != 0 {
		t.Errorf("cell event: %+v", cell)
	}
	if cell.CellsTotal != 1 || cell.CellsDone != 1 || cell.CellsFromCache != 0 {
		t.Errorf("cell event counts: %+v", cell)
	}
	if term.Type != "done" || term.Index != -1 || term.ResultURL == "" || term.RequestID != v.RequestID {
		t.Errorf("terminal event: %+v", term)
	}
	for i, ev := range events {
		if ev.Seq != i+1 || ev.APIVersion != apiVersion || ev.JobID != v.ID {
			t.Errorf("event %d ids: %+v", i, ev)
		}
	}

	// Replays are deterministic: the recorded log, not the connection.
	replay := readEvents()
	a, _ := json.Marshal(events)
	b, _ := json.Marshal(replay)
	if !bytes.Equal(a, b) {
		t.Errorf("replayed events differ:\n%s\n%s", a, b)
	}
}

// TestErrorEnvelope checks every non-2xx /v1 response carries the
// machine-readable envelope, with field paths on validation failures.
func TestErrorEnvelope(t *testing.T) {
	e := newEnv(t, Config{Runner: countingRunner(new(atomic.Int64), 0)})
	decode := func(resp *http.Response) api.ErrorEnvelope {
		t.Helper()
		var env api.ErrorEnvelope
		if err := json.Unmarshal(readAll(t, resp), &env); err != nil {
			t.Fatal(err)
		}
		if env.APIVersion != apiVersion {
			t.Errorf("envelope api_version = %q", env.APIVersion)
		}
		return env
	}

	env := decode(e.submit(`{"kind":"nonsense"}`))
	if env.Error.Code != "unknown_kind" || env.Error.Field != "kind" {
		t.Errorf("unknown kind envelope: %+v", env.Error)
	}
	env = decode(e.submit(`{"kind":"compare","params":{"mix":42}}`))
	if env.Error.Code != "invalid_param" || env.Error.Field != "params.mix" {
		t.Errorf("bad mix envelope: %+v", env.Error)
	}
	// A budget this large once passed validation and then killed the
	// daemon with an unrecoverable out-of-memory while allocating its
	// reference streams.
	for _, kind := range []string{"table1", "future"} {
		resp := e.submit(fmt.Sprintf(`{"kind":%q,"params":{"budget_sec":1e6}}`, kind))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: huge budget: status %d, want 400", kind, resp.StatusCode)
		}
		if env = decode(resp); env.Error.Code != "invalid_param" || env.Error.Field != "params.budget_sec" {
			t.Errorf("%s: huge budget envelope: %+v", kind, env.Error)
		}
	}
	// Replication counts this large once passed validation and then
	// killed the daemon with an unrecoverable out-of-memory while
	// allocating each cell's result slots.
	resp := e.submit(`{"kind":"compare","params":{"fast":true,"mix":5,"reps":1099511627776}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge reps: status %d, want 400", resp.StatusCode)
	}
	if env = decode(resp); env.Error.Code != "invalid_param" || env.Error.Field != "params.reps" {
		t.Errorf("huge reps envelope: %+v", env.Error)
	}
	// A processor count this large was once admitted and failed only
	// when its first cell ran (a 500 job_failed from the scheduler's
	// task-id check).
	resp = e.submit(`{"kind":"compare","params":{"fast":true,"mix":5,"procs":1048575}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("huge procs: status %d, want 400", resp.StatusCode)
	}
	if env = decode(resp); env.Error.Code != "invalid_param" || env.Error.Field != "params.procs" {
		t.Errorf("huge procs envelope: %+v", env.Error)
	}
	env = decode(e.submit(`{"kind":"compare","params":{"policies":["Equipartition","NoSuch"]}}`))
	if env.Error.Code != "invalid_param" || env.Error.Field != "params.policies[1]" {
		t.Errorf("bad policy envelope: %+v", env.Error)
	}
	// A lowercase alias is no second spelling of a policy.
	env = decode(e.submit(`{"kind":"compare","params":{"fast":true,"mix":5,"policies":["equi","dynamic"]}}`))
	if env.Error.Code != "invalid_param" || env.Error.Field != "params.policies[0]" {
		t.Errorf("policy alias envelope: %+v", env.Error)
	}
	env = decode(e.submit(`not json`))
	if env.Error.Code != "invalid_request" {
		t.Errorf("bad body envelope: %+v", env.Error)
	}

	resp, err := http.Get(e.url + "/v1/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: %d", resp.StatusCode)
	}
	if env = decode(resp); env.Error.Code != "not_found" {
		t.Errorf("missing job envelope: %+v", env.Error)
	}

	resp, err = http.Get(e.url + "/v1/jobs?limit=0")
	if err != nil {
		t.Fatal(err)
	}
	if env = decode(resp); env.Error.Code != "invalid_param" || env.Error.Field != "limit" {
		t.Errorf("bad limit envelope: %+v", env.Error)
	}
	resp, err = http.Get(e.url + "/v1/jobs?status=bogus")
	if err != nil {
		t.Fatal(err)
	}
	if env = decode(resp); env.Error.Code != "invalid_param" || env.Error.Field != "status" {
		t.Errorf("bad status envelope: %+v", env.Error)
	}
}

// TestListJobsFilterPagination checks the /v1/jobs filters and keyset
// pagination: stable id (admission) order, limit-sized pages, and
// next_page_token present exactly while more matches remain.
func TestListJobsFilterPagination(t *testing.T) {
	var runs atomic.Int64
	e := newEnv(t, Config{Runner: countingRunner(&runs, 0), JobWorkers: 1})

	kinds := []string{"compare", "table1", "compare", "table1", "compare"}
	for i, kind := range kinds {
		resp := e.submit(fmt.Sprintf(`{"kind":%q,"params":{"fast":true,"seed":%d},"async":true}`, kind, i+1))
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, b)
		}
	}

	type listResp struct {
		APIVersion    string    `json:"api_version"`
		Jobs          []jobView `json:"jobs"`
		NextPageToken string    `json:"next_page_token"`
	}
	list := func(query string) listResp {
		t.Helper()
		resp, err := http.Get(e.url + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		b := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list %q: %d %s", query, resp.StatusCode, b)
		}
		var lr listResp
		if err := json.Unmarshal(b, &lr); err != nil {
			t.Fatal(err)
		}
		if lr.APIVersion != apiVersion {
			t.Errorf("list api_version = %q", lr.APIVersion)
		}
		return lr
	}

	// Wait for all five to finish so status filters are deterministic.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if done := list("?status=done"); len(done.Jobs) == len(kinds) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("jobs never finished: %+v", list(""))
		}
		time.Sleep(10 * time.Millisecond)
	}

	all := list("")
	if len(all.Jobs) != 5 || all.NextPageToken != "" {
		t.Fatalf("unfiltered list: %d jobs, token %q", len(all.Jobs), all.NextPageToken)
	}
	for i := 1; i < len(all.Jobs); i++ {
		if all.Jobs[i-1].ID >= all.Jobs[i].ID {
			t.Errorf("listing not in ascending id order: %s >= %s", all.Jobs[i-1].ID, all.Jobs[i].ID)
		}
	}

	// Two pages of two, then a final page of one, stitched by token.
	var paged []string
	token := ""
	pages := 0
	for {
		lr := list("?limit=2&page_token=" + token)
		if len(lr.Jobs) > 2 {
			t.Fatalf("page exceeds limit: %d", len(lr.Jobs))
		}
		for _, v := range lr.Jobs {
			paged = append(paged, v.ID)
		}
		pages++
		if lr.NextPageToken == "" {
			break
		}
		token = lr.NextPageToken
		if pages > 5 {
			t.Fatal("pagination never terminated")
		}
	}
	if pages != 3 || len(paged) != 5 {
		t.Errorf("pagination walked %d pages / %d jobs, want 3 / 5", pages, len(paged))
	}
	for i, v := range all.Jobs {
		if paged[i] != v.ID {
			t.Errorf("paged order differs at %d: %s vs %s", i, paged[i], v.ID)
		}
	}

	if byKind := list("?kind=table1"); len(byKind.Jobs) != 2 {
		t.Errorf("kind filter returned %d jobs, want 2", len(byKind.Jobs))
	}
	if combo := list("?kind=compare&status=done&limit=2"); len(combo.Jobs) != 2 || combo.NextPageToken == "" {
		t.Errorf("combined filter page: %d jobs, token %q", len(combo.Jobs), combo.NextPageToken)
	}
	if none := list("?status=failed"); len(none.Jobs) != 0 {
		t.Errorf("failed filter returned %d jobs", len(none.Jobs))
	}
}

// TestCampaignSchemas checks GET /v1/campaigns exposes a parameter
// schema for every kind.
func TestCampaignSchemas(t *testing.T) {
	e := newEnv(t, Config{Runner: countingRunner(new(atomic.Int64), 0)})
	resp, err := http.Get(e.url + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		APIVersion string `json:"api_version"`
		Campaigns  []struct {
			Kind   string `json:"kind"`
			Params []struct {
				Name    string   `json:"name"`
				Type    string   `json:"type"`
				Default any      `json:"default"`
				Min     *float64 `json:"min"`
				Max     *float64 `json:"max"`
				Allowed []string `json:"allowed"`
			} `json:"params"`
		} `json:"campaigns"`
		EngineVersion string `json:"engine_version"`
	}
	if err := json.Unmarshal(readAll(t, resp), &out); err != nil {
		t.Fatal(err)
	}
	if out.APIVersion != apiVersion || out.EngineVersion == "" {
		t.Errorf("campaign listing meta: %+v", out)
	}
	if len(out.Campaigns) != 6 {
		t.Fatalf("campaign listing has %d kinds, want 6", len(out.Campaigns))
	}
	for _, c := range out.Campaigns {
		if len(c.Params) == 0 {
			t.Errorf("%s: no parameter schema", c.Kind)
			continue
		}
		names := map[string]bool{}
		for _, p := range c.Params {
			if p.Name == "" || p.Type == "" {
				t.Errorf("%s: incomplete spec %+v", c.Kind, p)
			}
			names[p.Name] = true
		}
		if !names["seed"] || !names["workers"] {
			t.Errorf("%s: schema missing common params: %v", c.Kind, names)
		}
		for _, p := range c.Params {
			if p.Name == "budget_sec" && (p.Max == nil || *p.Max != 100) {
				t.Errorf("%s: budget_sec max = %v, want 100", c.Kind, p.Max)
			}
			if p.Name == "reps" && (p.Max == nil || *p.Max != 100) {
				t.Errorf("%s: reps max = %v, want 100", c.Kind, p.Max)
			}
		}
		if c.Kind == "compare" {
			found := false
			for _, p := range c.Params {
				if p.Name == "policies" && len(p.Allowed) > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("compare: policies spec missing allowed values")
			}
		}
	}
}

// update makes the golden test in this package write the bytes it would
// otherwise compare (`make regen`).
var update = flag.Bool("update", false, "rewrite the golden files instead of comparing against them")

// TestCampaignListingGolden pins GET /v1/campaigns byte for byte
// (testdata/campaigns.json): every kind's description, parameter order,
// defaults, bounds and allowed values are wire contract, so a change to
// any of them shows here as a reviewed golden edit.
func TestCampaignListingGolden(t *testing.T) {
	const path = "testdata/campaigns.json"
	e := newEnv(t, Config{Runner: countingRunner(new(atomic.Int64), 0)})
	resp, err := http.Get(e.url + "/v1/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, resp)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("GET /v1/campaigns differs from %s; re-record it with make regen:\n%s", path, got)
	}
}

// TestFailingCellIsMissNotExecution: a cell whose run fails fails the
// job and counts as a miss, never as an execution, and nothing is
// cached for it. The failing input is the known Dyn-Aff-Delay deadlock
// on mix 3 (ROADMAP, "A preempted task is stranded").
func TestFailingCellIsMissNotExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	e := newEnv(t, Config{})
	r := e.submit(`{"kind":"compare","params":{"fast":true,"reps":5,"mix":3,"policies":["Dyn-Aff-Delay"]}}`)
	body := readAll(t, r)
	if r.StatusCode == http.StatusOK {
		t.Fatalf("deadlocking campaign succeeded: %s", body)
	}
	c := &e.s.metrics.cells
	if m, x := c.Misses.Load(), c.Executions.Load(); m != 1 || x != 0 {
		t.Errorf("misses=%d executions=%d, want 1 and 0", m, x)
	}
	if st := e.s.cells.Memory.Stats(); st.Entries != 0 {
		t.Errorf("failed cell cached: %+v", st)
	}
}
