package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/resultcache"
	"repro/internal/service"
)

// TestServeSmoke is the `make serve-smoke` gate: boot the daemon's
// serving core on a random port, run the same table1 campaign twice
// against the real simulation engine, and require the second response to
// be a result-cache hit with a byte-identical body. Run under -race.
func TestServeSmoke(t *testing.T) {
	srv := service.New(service.Config{QueueDepth: 4, JobWorkers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	req := `{"kind":"table1","params":{"fast":true,"budget_sec":0.5,"reps":1}}`
	post := func() (*http.Response, []byte) {
		resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, b
	}

	r1, body1 := post()
	if r1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", r1.StatusCode, body1)
	}
	if got := r1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache = %q, want miss", got)
	}
	if !bytes.Contains(body1, []byte(`"pna_us"`)) {
		t.Errorf("table1 body missing penalties: %.120s", body1)
	}

	r2, body2 := post()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d %s", r2.StatusCode, body2)
	}
	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cache hit body not byte-identical:\n%s\n%s", body1, body2)
	}

	// Exactly one miss then one hit, as /metrics reports them.
	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{"affinityd_cache_hits_total 1", "affinityd_cache_misses_total 1"} {
		if !bytes.Contains(mb, []byte(want)) {
			t.Errorf("metrics missing %q:\n%s", want, mb)
		}
	}
}

// TestObsSmoke is the `make obs-smoke` gate: boot the serving core with
// the real campaign registry, run one simulation-backed campaign, and
// require the engine-level counters and the request-span histograms at
// /metrics to be nonzero — proving the stats path is wired end to end
// (scheduler -> cache model -> campaign fold -> job collector -> daemon
// metrics) without touching the result body.
func TestObsSmoke(t *testing.T) {
	srv := service.New(service.Config{QueueDepth: 4, JobWorkers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	resp, err := http.Post(base+"/v1/campaigns", "application/json",
		strings.NewReader(`{"kind":"table1","params":{"fast":true,"budget_sec":0.5,"reps":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("campaign: %d %s", resp.StatusCode, body)
	}
	if rid := resp.Header.Get("X-Request-Id"); rid == "" {
		t.Error("X-Request-Id header missing")
	}

	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()

	// metric scans the exposition text for an exact series name and
	// returns its value.
	metric := func(name string) float64 {
		for _, line := range strings.Split(string(mb), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[0] == name {
				v, err := strconv.ParseFloat(fields[1], 64)
				if err != nil {
					t.Fatalf("%s: bad value %q", name, fields[1])
				}
				return v
			}
		}
		t.Fatalf("metrics missing series %s:\n%s", name, mb)
		return 0
	}
	for _, name := range []string{
		"affinityd_sim_runs_total",
		"affinityd_sim_reallocations_total",
		"affinityd_sim_migrations_total",
		"affinityd_sim_pa_charges_total",
		"affinityd_sim_pna_charges_total",
		"affinityd_sim_flushes_total",
		"affinityd_sim_penalty_seconds_total",
		"affinityd_request_queue_wait_seconds_count",
		"affinityd_request_exec_seconds_count",
		"affinityd_request_cache_lookup_seconds_count",
		"affinityd_request_admit_seconds_count",
	} {
		if v := metric(name); v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	// The exec histogram's +Inf bucket must agree with its count.
	if !bytes.Contains(mb, []byte(`affinityd_request_exec_seconds_bucket{le="+Inf"} 1`)) {
		t.Errorf("exec histogram +Inf bucket missing or wrong:\n%s", mb)
	}
}

// TestSigtermDrains builds the real binary, runs it on a random port,
// and checks SIGTERM triggers a graceful drain and a clean exit.
func TestSigtermDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "affinityd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-jobs", "1", "-queue", "2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Parse the advertised address, then collect the rest of the output.
	sc := bufio.NewScanner(stdout)
	var base string
	for sc.Scan() {
		line := sc.Text()
		if i := strings.Index(line, "http://"); i >= 0 {
			base = strings.Fields(line[i:])[0]
			break
		}
	}
	if base == "" {
		t.Fatal("daemon never advertised its address")
	}
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteByte('\n')
		}
		rest <- b.String()
	}()

	// Prove it serves, then terminate.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Drain stdout to EOF before calling Wait: Wait closes the pipe and
	// would race the reader out of the final drain messages.
	var out string
	select {
	case out = <-rest:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit within 30s of SIGTERM")
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("daemon exited non-zero after SIGTERM: %v", err)
	}
	if !strings.Contains(out, "drained, exiting") {
		t.Errorf("shutdown output missing drain message:\n%s", out)
	}
}

// TestPersistSmoke is the `make persist-smoke` gate, the whole
// persistence story against the real binary:
//
//  1. Boot with a fresh -store-dir and run a compare campaign over a
//     subset of the tested campaign's policies to completion, so that
//     part of the tested grid is on disk. Start a long campaign and queue
//     the tested one behind it on the single job worker, then SIGKILL the
//     process mid-campaign — no drain, no flush barrier.
//  2. Reboot on the same directory and submit the tested campaign: every
//     cell the dead process had flushed must be served from disk (zero
//     re-execution for them), and the final body must be byte-identical
//     to a cold, uninterrupted run.
//  3. Terminate gracefully, boot a third time, re-submit: the completed
//     campaign body itself is now on disk, so the response is X-Cache:
//     disk with zero cells executed.
//
// The kill lands mid-grid by construction rather than by a polling race:
// the subset's frames are all flushed before anything else is submitted,
// and the tested campaign cannot start before the kill, being queued
// behind a paper-scale campaign of 100 replications a cell, which keeps
// the one job worker busy for over a minute.
func TestPersistSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build and campaign runs in -short mode")
	}
	// The tested campaign's three cells are (mix 5, policy) pairs, the
	// first two of which the subset campaign computes.
	const totalCells, subsetCells = 3, 2
	req := `{"kind":"compare","params":{"fast":true,"mix":5,"reps":1,"workers":1,"policies":["Equipartition","Dynamic","Dyn-Aff"]}}`
	subset := `{"kind":"compare","params":{"fast":true,"mix":5,"reps":1,"workers":1,"policies":["Equipartition","Dynamic"]}}`
	blocker := `{"kind":"compare","params":{"reps":100,"workers":1},"async":true}`
	bin := filepath.Join(t.TempDir(), "affinityd")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	storeDir := filepath.Join(t.TempDir(), "store")

	// boot starts the daemon against storeDir and returns the process and
	// its advertised base URL.
	boot := func() (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-jobs", "1", "-queue", "2", "-store-dir", storeDir)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 {
				go func() {
					for sc.Scan() {
					} // drain the pipe so the child never blocks on stdout
				}()
				return cmd, strings.Fields(line[i:])[0]
			}
		}
		t.Fatal("daemon never advertised its address")
		return nil, ""
	}
	get := func(base, path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	metric := func(base, name string) int {
		t.Helper()
		mb := get(base, "/metrics")
		for _, line := range strings.Split(string(mb), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[0] == name {
				v, err := strconv.Atoi(fields[1])
				if err != nil {
					t.Fatalf("%s: bad value %q", name, fields[1])
				}
				return v
			}
		}
		t.Fatalf("metrics missing series %s:\n%s", name, mb)
		return 0
	}

	// Cold, uninterrupted reference body from the in-process serving core.
	coldSrv := service.New(service.Config{QueueDepth: 4, JobWorkers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coldSrv.Shutdown(ctx)
	}()
	coldLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coldHS := &http.Server{Handler: coldSrv.Handler()}
	go coldHS.Serve(coldLn)
	defer coldHS.Close()
	coldResp, err := http.Post("http://"+coldLn.Addr().String()+"/v1/campaigns", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	coldBody, _ := io.ReadAll(coldResp.Body)
	coldResp.Body.Close()
	if coldResp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", coldResp.StatusCode, coldBody)
	}

	post := func(base, body string, want int) {
		t.Helper()
		resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %.60s: %d %s", body, resp.StatusCode, b)
		}
	}
	// Phase 1: complete the subset, wait until its cell frames and body
	// frame are flushed, occupy the job worker, queue the tested
	// campaign, kill -9.
	procA, baseA := boot()
	defer procA.Process.Kill()
	post(baseA, subset, http.StatusOK)
	deadline := time.Now().Add(120 * time.Second)
	for metric(baseA, "affinityd_store_flushed_frames_total") < subsetCells+1 {
		if time.Now().After(deadline) {
			t.Fatalf("store never flushed the subset's %d frames", subsetCells+1)
		}
		time.Sleep(20 * time.Millisecond)
	}
	post(baseA, blocker, http.StatusAccepted)
	post(baseA, strings.TrimSuffix(req, "}")+`,"async":true}`, http.StatusAccepted)
	if err := procA.Process.Kill(); err != nil { // SIGKILL: no drain, no fsync
		t.Fatal(err)
	}
	procA.Wait()

	// Phase 2: reboot on the same directory. The subset's flushed cells
	// are served from disk; only the remainder executes; the body matches
	// the cold run bit for bit.
	procB, baseB := boot()
	defer procB.Process.Kill()
	resp, err := http.Post(baseB+"/v1/campaigns", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	warmBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rebooted run: %d %s", resp.StatusCode, warmBody)
	}
	if got := resp.Header.Get("X-Cache"); got == "disk" {
		t.Fatal("the tested campaign's body was on disk before it ever ran")
	}
	if !bytes.Equal(warmBody, coldBody) {
		t.Errorf("rebooted body differs from cold run:\n%.200s\n%.200s", warmBody, coldBody)
	}
	disk := metric(baseB, "affinityd_cell_disk_hits_total")
	execs := metric(baseB, "affinityd_cell_executions_total")
	misses := metric(baseB, "affinityd_cell_misses_total")
	if disk != subsetCells {
		t.Errorf("rebooted run served %d cells from disk, want the subset's %d", disk, subsetCells)
	}
	if disk+execs != totalCells || misses != execs {
		t.Errorf("cell accounting: disk=%d misses=%d executions=%d, want disk+executions=%d and misses=executions",
			disk, misses, execs, totalCells)
	}
	// Graceful SIGTERM: the drain flushes the completed campaign body.
	if err := procB.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := procB.Wait(); err != nil {
		t.Fatalf("daemon exited non-zero after SIGTERM: %v", err)
	}

	// Phase 3: third boot serves the whole campaign straight from disk.
	procC, baseC := boot()
	defer procC.Process.Kill()
	cr, err := http.Post(baseC+"/v1/campaigns", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	diskBody, _ := io.ReadAll(cr.Body)
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("third-boot run: %d %s", cr.StatusCode, diskBody)
	}
	if got := cr.Header.Get("X-Cache"); got != "disk" {
		t.Errorf("third-boot X-Cache = %q, want disk", got)
	}
	if !bytes.Equal(diskBody, coldBody) {
		t.Errorf("third-boot body differs from cold run:\n%.200s\n%.200s", diskBody, coldBody)
	}
	if x := metric(baseC, "affinityd_cell_executions_total"); x != 0 {
		t.Errorf("third boot executed %d cells, want 0", x)
	}
	procC.Process.Signal(syscall.SIGTERM)
	procC.Wait()
}

// TestCellSmoke is the `make cell-smoke` gate: complete part of a
// campaign's grid on one server, stop that server hard while the
// campaign itself is still queued, then re-submit the campaign on a
// second server sharing the same cell cache. The resumed run must
// execute only the cells the first server never completed (visible in
// the affinityd_cell_* metrics) and produce a body byte-identical to a
// cold, uninterrupted run.
//
// The stop lands mid-grid by construction rather than by a polling race,
// as in TestPersistSmoke: a subset campaign computes the first cells of
// the tested grid to completion before anything else is submitted, and
// the tested campaign cannot start before the stop, being queued behind
// a paper-scale campaign of 100 replications a cell, which keeps the one
// job worker busy far longer than the two requests before the stop take.
func TestCellSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs in -short mode")
	}
	// The tested campaign's three cells are (mix 5, policy) pairs, the
	// first two of which the subset campaign computes.
	const totalCells, subsetCells = 3, 2
	req := `{"kind":"compare","params":{"fast":true,"mix":5,"reps":1,"workers":1,"policies":["Equipartition","Dynamic","Dyn-Aff"]}}`
	subset := `{"kind":"compare","params":{"fast":true,"mix":5,"reps":1,"workers":1,"policies":["Equipartition","Dynamic"]}}`
	blocker := `{"kind":"compare","params":{"reps":100,"workers":1},"async":true}`

	listen := func(srv *service.Server) (string, *http.Server) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		return "http://" + ln.Addr().String(), hs
	}
	post := func(base, body string, want int) []byte {
		t.Helper()
		resp, err := http.Post(base+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != want {
			t.Fatalf("POST %.60s: %d %s", body, resp.StatusCode, b)
		}
		return b
	}

	// Cold, uninterrupted reference run on a private server.
	coldSrv := service.New(service.Config{QueueDepth: 4, JobWorkers: 1})
	coldBase, coldHS := listen(coldSrv)
	defer coldHS.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coldSrv.Shutdown(ctx)
	}()
	coldBody := post(coldBase, req, http.StatusOK)

	// Server A shares `cells` with the resuming server B. It completes the
	// subset, then holds the tested campaign queued behind the blocker
	// until the hard stop: an already-cancelled drain context turns
	// Shutdown into a hard stop that cancels the queued campaign and the
	// in-flight blocker between replications.
	cells := resultcache.New(64 << 20)
	srvA := service.New(service.Config{QueueDepth: 4, JobWorkers: 1, CellCache: cells})
	baseA, hsA := listen(srvA)
	defer hsA.Close()
	post(baseA, subset, http.StatusOK)
	post(baseA, blocker, http.StatusAccepted)
	post(baseA, strings.TrimSuffix(req, "}")+`,"async":true}`, http.StatusAccepted)
	killed, cancelKilled := context.WithCancel(context.Background())
	cancelKilled()
	srvA.Shutdown(killed) // returns context.Canceled by design; the point is the hard stop

	// Server B resumes from the shared cell cache.
	srvB := service.New(service.Config{QueueDepth: 4, JobWorkers: 1, CellCache: cells})
	baseB, hsB := listen(srvB)
	defer hsB.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srvB.Shutdown(ctx)
	}()
	warmBody := post(baseB, req, http.StatusOK)
	if !bytes.Equal(warmBody, coldBody) {
		t.Errorf("resumed body differs from cold run:\n%.200s\n%.200s", warmBody, coldBody)
	}

	// The resumed run reused every cell the stopped server completed and
	// executed exactly the remainder.
	mr, err := http.Get(baseB + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	metric := func(name string) int {
		for _, line := range strings.Split(string(mb), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[0] == name {
				v, err := strconv.Atoi(fields[1])
				if err != nil {
					t.Fatalf("%s: bad value %q", name, fields[1])
				}
				return v
			}
		}
		t.Fatalf("metrics missing series %s:\n%s", name, mb)
		return 0
	}
	hits := metric("affinityd_cell_hits_total")
	execs := metric("affinityd_cell_executions_total")
	misses := metric("affinityd_cell_misses_total")
	if hits != subsetCells || execs != totalCells-subsetCells || misses != execs {
		t.Errorf("cell accounting: hits=%d misses=%d executions=%d, want hits=%d and misses=executions=%d",
			hits, misses, execs, subsetCells, totalCells-subsetCells)
	}
}

// TestFleetSmoke is the `make fleet-smoke` gate, the distributed story
// against real binaries:
//
//  1. Boot one coordinator and three workers (random ports, workers
//     joining via -join), all holding the same -fleet-token, waiting on
//     /v1/workers for all three to register — readiness is polled,
//     never slept for. A fourth worker with no token keeps knocking and
//     never joins, and a hand-rolled unsigned registration gets the 401
//     envelope: the authenticated transport is on for the whole run.
//  2. Kill -9 the best-scored worker (the one placement will pick
//     first) while it is still registered, and submit a table1
//     campaign: its first dispatch goes to the dead worker. The
//     coordinator must absorb the loss — retry the cell elsewhere
//     (visible in affinityd_fleet_*), shift placement to the survivors
//     — and finish; the dead worker drops from /v1/workers/{id}.
//  3. The final body must be byte-identical to a cold single-process
//     run, with the coordinator's misses == executions invariant intact
//     (duplicates from hedging never double-fold).
//  4. The coordinator and the first worker run with a -store-dir, so
//     their disk tiers sit in every lookup: the coordinator files every
//     cell and the body on disk, the worker every cell it executed.
//     Both must drain and exit cleanly on SIGTERM.
//
// Under go test -race the daemon is race-built too, so its dispatch,
// hedge and store legs are race-checked: a detected race makes the
// coordinator or the first worker exit nonzero.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary build and campaign runs in -short mode")
	}
	const totalCells = 9 // table1: 3 Qs x 3 measured applications
	req := `{"kind":"table1","params":{"fast":true,"budget_sec":0.5,"reps":1,"workers":3}}`
	bin := filepath.Join(t.TempDir(), "affinityd")
	args := []string{"build", "-o", bin}
	if raceEnabled {
		args = append(args, "-race")
	}
	build := exec.Command("go", append(args, ".")...)
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	boot := func(args ...string) (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "http://"); i >= 0 && strings.Contains(line, "listening on") {
				go func() {
					for sc.Scan() {
					} // drain the pipe so the child never blocks on stdout
				}()
				return cmd, strings.Fields(line[i:])[0]
			}
		}
		t.Fatal("daemon never advertised its address")
		return nil, ""
	}
	get := func(base, path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	metric := func(base, name string) int {
		t.Helper()
		mb := get(base, "/metrics")
		for _, line := range strings.Split(string(mb), "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[0] == name {
				v, err := strconv.Atoi(fields[1])
				if err != nil {
					t.Fatalf("%s: bad value %q", name, fields[1])
				}
				return v
			}
		}
		t.Fatalf("metrics missing series %s:\n%s", name, mb)
		return 0
	}

	// Cold single-process reference body.
	coldSrv := service.New(service.Config{QueueDepth: 4, JobWorkers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coldSrv.Shutdown(ctx)
	}()
	coldLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coldHS := &http.Server{Handler: coldSrv.Handler()}
	go coldHS.Serve(coldLn)
	defer coldHS.Close()
	coldResp, err := http.Post("http://"+coldLn.Addr().String()+"/v1/campaigns", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	coldBody, _ := io.ReadAll(coldResp.Body)
	coldResp.Body.Close()
	if coldResp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", coldResp.StatusCode, coldBody)
	}

	// Fleet: one coordinator, three workers, all sharing a fleet token —
	// the smoke gate runs with the authenticated transport on. A short
	// hedge delay makes any straggler (including the one we orphan by
	// SIGKILL) re-dispatch quickly.
	const token = "fleet-smoke-secret"
	coord, coordBase := boot("-coordinator", "-fleet-token", token, "-hedge-ms", "250", "-jobs", "1", "-queue", "4",
		"-store-dir", t.TempDir())
	defer coord.Process.Kill()
	var workers []*exec.Cmd
	var workerBases []string
	for i := 0; i < 3; i++ {
		args := []string{"-join", coordBase, "-fleet-token", token}
		if i == 0 {
			args = append(args, "-store-dir", t.TempDir())
		}
		w, base := boot(args...)
		defer w.Process.Kill()
		workers = append(workers, w)
		workerBases = append(workerBases, base)
	}
	// A rogue worker with no token: it keeps knocking, never joins.
	rogue, _ := boot("-join", coordBase)
	defer rogue.Process.Kill()

	// Readiness: poll the registry until all three workers are live.
	type workersView struct {
		Coordinator bool `json:"coordinator"`
		Workers     []struct {
			ID         string `json:"id"`
			URL        string `json:"url"`
			Dispatched int    `json:"dispatched"`
		} `json:"workers"`
	}
	deadline := time.Now().Add(60 * time.Second)
	var wv workersView
	for {
		if err := json.Unmarshal(get(coordBase, "/v1/workers"), &wv); err != nil {
			t.Fatal(err)
		}
		if len(wv.Workers) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached 3 workers: %+v", wv)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !wv.Coordinator {
		t.Fatalf("/v1/workers does not report coordinator mode: %+v", wv)
	}

	// The rogue's unsigned registrations are being refused: the rejection
	// counter moves while the registry stays at three.
	for metric(coordBase, "affinityd_fleet_auth_rejections_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator never counted an auth rejection from the tokenless worker")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := json.Unmarshal(get(coordBase, "/v1/workers"), &wv); err != nil {
		t.Fatal(err)
	}
	if len(wv.Workers) != 3 {
		t.Fatalf("tokenless worker joined the registry: %+v", wv)
	}

	// A hand-rolled unsigned registration gets the standard 401 envelope.
	unauth, err := http.Post(coordBase+"/v1/fleet/register", "application/json",
		strings.NewReader(`{"url":"http://203.0.113.9:7101","engine_version":"whatever"}`))
	if err != nil {
		t.Fatal(err)
	}
	ub, _ := io.ReadAll(unauth.Body)
	unauth.Body.Close()
	if unauth.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unsigned register: status %d %s, want 401", unauth.StatusCode, ub)
	}
	var envlp struct {
		APIVersion string `json:"api_version"`
		Error      struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(ub, &envlp); err != nil {
		t.Fatalf("unsigned register response is not the envelope: %s", ub)
	}
	if envlp.APIVersion != "v1" || envlp.Error.Code != "unauthenticated" {
		t.Fatalf("unsigned register envelope = %s, want v1/unauthenticated", ub)
	}

	// Kill -9 the worker placement will pick first, then submit. Before
	// any dispatch every worker scores the same (idle, unmeasured, never
	// failed), and the scorer breaks ties by URL, so the campaign's first
	// dispatch goes to the lowest URL. The coordinator still lists the
	// dead worker (its last heartbeat is under WorkerTTL old), so that
	// dispatch fails and is retried on a survivor by construction, not by
	// racing the grid's progress.
	if err := json.Unmarshal(get(coordBase, "/v1/workers"), &wv); err != nil {
		t.Fatal(err)
	}
	victim, deadID, victimURL := 0, "", ""
	for _, w := range wv.Workers {
		for i, base := range workerBases {
			if w.URL == base && (deadID == "" || w.URL < victimURL) {
				victim, deadID, victimURL = i, w.ID, w.URL
			}
		}
	}
	if deadID == "" {
		t.Fatalf("no registered worker matches a booted base: %+v vs %v", wv, workerBases)
	}
	if err := workers[victim].Process.Kill(); err != nil { // SIGKILL: no goodbye
		t.Fatal(err)
	}
	workers[victim].Wait()
	ar, err := http.Post(coordBase+"/v1/campaigns", "application/json",
		strings.NewReader(strings.TrimSuffix(req, "}")+`,"async":true}`))
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := io.ReadAll(ar.Body)
	ar.Body.Close()
	if ar.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", ar.StatusCode, ab)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ab, &accepted); err != nil {
		t.Fatal(err)
	}
	jobView := func() string {
		t.Helper()
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(get(coordBase, "/v1/jobs/"+accepted.ID), &v); err != nil {
			t.Fatal(err)
		}
		return v.Status
	}

	// The campaign must still finish.
	for {
		status := jobView()
		if status == "done" {
			break
		}
		if status != "running" && status != "queued" {
			t.Fatalf("job reached %q, want done", status)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign did not finish after worker kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	fleetBody := get(coordBase, "/v1/jobs/"+accepted.ID+"/result")
	if !bytes.Equal(fleetBody, coldBody) {
		t.Errorf("fleet body differs from single-process run:\n%.200s\n%.200s", fleetBody, coldBody)
	}

	// The loss was absorbed remotely: cells ran on workers, the orphaned
	// dispatch retried or hedged, and the dead worker left the registry.
	remote := metric(coordBase, "affinityd_fleet_remote_cells_total")
	retries := metric(coordBase, "affinityd_fleet_retries_total")
	hedges := metric(coordBase, "affinityd_fleet_hedges_total")
	if remote < 1 {
		t.Errorf("no cells executed remotely (remote=%d)", remote)
	}
	if retries+hedges < 1 {
		t.Errorf("worker kill produced no retry or hedge (retries=%d hedges=%d)", retries, hedges)
	}
	if live := metric(coordBase, "affinityd_fleet_workers"); live != 2 {
		t.Errorf("affinityd_fleet_workers = %d after kill, want 2", live)
	}
	// Every late duplicate a hedge or retry left behind matched the
	// winner's bytes: the workers computed the same cells.
	if m := metric(coordBase, "affinityd_fleet_duplicate_mismatches_total"); m != 0 {
		t.Errorf("affinityd_fleet_duplicate_mismatches_total = %d, want 0", m)
	}
	// The dead worker dropped from the detail surface too.
	if dr, err := http.Get(coordBase + "/v1/workers/" + deadID); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, dr.Body)
		dr.Body.Close()
		if dr.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/workers/%s after kill: %d, want 404", deadID, dr.StatusCode)
		}
	}
	// Placement was scored, not round-robined: every dispatch recorded a
	// decision, and the survivors' detail rows show RTT measurements.
	if pd := metric(coordBase, "affinityd_fleet_placement_decisions_total"); pd < totalCells {
		t.Errorf("placement decisions = %d, want >= %d", pd, totalCells)
	}
	if err := json.Unmarshal(get(coordBase, "/v1/workers"), &wv); err != nil {
		t.Fatal(err)
	}
	measured := 0
	for _, w := range wv.Workers {
		var d struct {
			RTTCount int `json:"rtt_count"`
		}
		if err := json.Unmarshal(get(coordBase, "/v1/workers/"+w.ID), &d); err != nil {
			t.Fatal(err)
		}
		measured += d.RTTCount
	}
	if measured < 1 {
		t.Errorf("no survivor has an RTT measurement; placement shift invisible")
	}
	// Placement-independent accounting: every miss resolved to exactly
	// one execution, however many dispatch attempts it took.
	misses := metric(coordBase, "affinityd_cell_misses_total")
	execs := metric(coordBase, "affinityd_cell_executions_total")
	if misses != totalCells || execs != totalCells {
		t.Errorf("cell accounting: misses=%d executions=%d, want %d each", misses, execs, totalCells)
	}

	// The job view attributes remote cells to worker URLs.
	var attributed struct {
		CellsRemote int            `json:"cells_remote"`
		Workers     map[string]int `json:"workers"`
	}
	if err := json.Unmarshal(get(coordBase, "/v1/jobs/"+accepted.ID), &attributed); err != nil {
		t.Fatal(err)
	}
	if attributed.CellsRemote < 1 || len(attributed.Workers) == 0 {
		t.Errorf("job view missing worker attribution: %+v", attributed)
	}

	// The disk legs ran: the coordinator filed every cell and the body;
	// the store-backed worker, unless it was the one killed, filed every
	// cell it executed. Its store Put precedes the counter
	// increment, so a straggler still finishing can only add puts.
	if puts := metric(coordBase, "affinityd_store_puts_total"); puts < totalCells+1 {
		t.Errorf("coordinator store puts = %d, want >= %d (every cell and the body)", puts, totalCells+1)
	}
	if metric(coordBase, "affinityd_store_misses_total") < totalCells+1 {
		t.Errorf("coordinator lookups did not probe its disk tier")
	}
	stopped := []*exec.Cmd{coord}
	if victim != 0 {
		base := workerBases[0]
		executed := metric(base, "affinityd_fleet_worker_executions_total")
		if puts := metric(base, "affinityd_store_puts_total"); puts < executed {
			t.Errorf("store-backed worker: store puts = %d, want >= %d (executions)", puts, executed)
		}
		stopped = append(stopped, workers[0])
	}
	for _, p := range stopped {
		p.Process.Signal(syscall.SIGTERM)
		if err := p.Wait(); err != nil {
			t.Errorf("%s did not exit cleanly on SIGTERM: %v", strings.Join(p.Args, " "), err)
		}
	}
}
