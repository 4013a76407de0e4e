package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/diskstore"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/service"
	"repro/internal/version"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload run: its set-ups, timed window, checks and metrics.
type run struct {
	in      *inputs
	sz      sizing
	workDir string // scratch space for stores; removed by the caller
	client  *http.Client
	oracle  *oracle
	stderr  io.Writer

	snapshot string          // traced disk-restart: where set-up copies the store for the replay
	opens    []time.Duration // disk-restart: diskstore.Open times of every restart
	restarts []time.Duration // disk-restart: diskstore.Open plus service.New, per restart
	res      result
	reported int // failures printed so far
}

// restarts is how many times disk-restart's set-up restarts the daemon on
// its populated store. A restart takes milliseconds, so taking the median
// of many costs little and keeps a brief host stall out of setup_s.
const restarts = 15

// fail counts one failure, printing the first few.
func (r *run) fail(format string, args ...any) {
	r.res.Failed++
	if r.reported++; r.reported <= 10 {
		fmt.Fprintf(r.stderr, "%s: "+format+"\n", append([]any{r.in.workload}, args...)...)
	}
}

// setup boots the workload's deployment and brings it to the state the
// timed window starts from.
func (r *run) setup(tr *tracer) (*deployment, error) {
	var d *deployment
	var err error
	switch r.in.workload {
	case "disk-restart":
		return r.setupDisk(tr)
	case "fleet":
		d, err = bootFleet(tr, "")
	default:
		d, err = bootSingle(nil, tr)
	}
	if err != nil {
		return nil, err
	}
	if err := r.warm(d); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// warm sends the set-up requests closed loop; any failure fails the set-up.
func (r *run) warm(d *deployment) error {
	outs, _ := closedLoop(r.client, d.front.url, r.in.setup)
	for i := range outs {
		if !outs[i].ok() {
			return fmt.Errorf("set-up request %s: %w", r.in.setup[i].body, outs[i].err)
		}
	}
	return nil
}

// setupDisk stores the set-up campaigns through a daemon with a disk
// store, drains it, and restarts it on the same directory, timing each
// restart's store scan and serving core; the last restart serves the
// window.
func (r *run) setupDisk(tr *tracer) (*deployment, error) {
	dir, err := os.MkdirTemp(r.workDir, "store-")
	if err != nil {
		return nil, err
	}
	opts := diskstore.Options{EngineVersion: version.Engine}
	store, err := diskstore.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	d, err := bootSingle(store, nil)
	if err != nil {
		store.Close()
		return nil, err
	}
	err = r.warm(d)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if tr != nil && r.snapshot != "" {
		if err := copyDir(dir, r.snapshot); err != nil {
			return nil, err
		}
	}
	var srv *service.Server
	for k := 0; k < restarts; k++ {
		if srv != nil {
			srv.Shutdown(context.Background())
			if err := store.Close(); err != nil {
				return nil, err
			}
		}
		// A restarted daemon is a fresh process: collect the previous
		// instance's garbage first, so that no restart pays for it.
		runtime.GC()
		t := time.Now()
		if store, err = diskstore.Open(dir, opts); err != nil {
			return nil, err
		}
		r.opens = append(r.opens, time.Since(t))
		srv = service.New(service.Config{Store: store})
		r.restarts = append(r.restarts, time.Since(t))
	}
	n, err := serve(srv, tr.wrap("front", srv.Handler()))
	if err != nil {
		srv.Shutdown(context.Background())
		store.Close()
		return nil, err
	}
	return &deployment{front: n, store: store, dir: dir}, nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// window is what one timed window measured.
type window struct {
	outs    []outcome
	start   time.Time
	delta   counters // /metrics change over the window
	heapMiB float64
	allocs  uint64
}

func (r *run) measure(d *deployment, reqs []request) *window {
	runtime.GC() // earlier set-ups' garbage must not count toward this window's heap
	before := d.scrape()
	allocs := heapAllocs()
	heap := watchHeap()
	w := &window{}
	if r.in.openLoop {
		w.outs, w.start = openLoop(r.client, d.front.url, reqs)
	} else {
		w.outs, w.start = closedLoop(r.client, d.front.url, reqs)
	}
	w.heapMiB = heap.meanMiB()
	w.allocs = heapAllocs() - allocs
	// A hedge's late duplicate resolves in the background after its cell
	// returns; give the dispatch counters a moment to settle.
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		w.delta = d.scrape().sub(before)
		if len(invariants(w.delta, d.coord != nil)) == 0 || time.Now().After(deadline) {
			return w
		}
	}
}

// stride picks the requests whose bodies are checked and replayed: every
// one in the open loop; in the closed loop, whose requests are few and
// costly, every seventh, a stride prime to the class patterns' periods so
// that every class is sampled.
func (r *run) stride() int {
	if r.in.openLoop {
		return 1
	}
	return 7
}

// check counts the window's failures: requests that failed or timed out,
// bodies that differ from the reference (see stride), and broken
// invariants.
func (r *run) check(reqs []request, w *window) error {
	r.res.Attempted += len(reqs)
	for i := range w.outs {
		if !w.outs[i].ok() {
			r.fail("request %d (%s): %v", i, reqs[i].class, w.outs[i].err)
		}
	}
	bad, err := r.oracle.verify(reqs, w.outs, r.stride())
	if err != nil {
		return err
	}
	for k := 0; k < bad; k++ {
		r.fail("response body differs from the reference")
	}
	for _, b := range invariants(w.delta, r.in.workload == "fleet") {
		r.fail("invariant broken: %s", b)
	}
	return nil
}

// e2e sets up sz.setups times, measures the window on the last set-up,
// fills in the end-to-end metrics, and returns the window. disk-restart
// populates its store once: its set-up time is that of the restarts, the
// part a deployed daemon repeats.
func (r *run) e2e() (*window, error) {
	var setups []float64
	var d *deployment
	n := r.sz.setups
	if r.in.workload == "disk-restart" {
		n = 1
	}
	for k := 0; k < n; k++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t := time.Now()
		var err error
		if d, err = r.setup(nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	if len(r.restarts) > 0 {
		setups = setups[:0]
		for _, t := range r.restarts {
			setups = append(setups, t.Seconds())
		}
	}
	w := r.measure(d, r.in.timed)
	if err := d.close(); err != nil {
		return nil, err
	}
	if err := r.check(r.in.timed, w); err != nil {
		return nil, err
	}
	lat, cells, last := latencies(r.in.timed, w)
	r.res.Metrics = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"latency_p50_ms": {quantile(lat, 0.50), "ms"},
		"cells_per_s":    {ratio(float64(cells), last.Sub(w.start).Seconds()), "cells/s"},
		"heap_live_mb":   {w.heapMiB, "MiB"},
		"success_ratio":  {1 - ratio(float64(r.res.Failed), float64(r.res.Attempted)), "fraction"},
	}
	r.warnLoad(w)
	return w, nil
}

// latencies returns the sorted latencies (ms) of the successful requests,
// their total cells, and when the last one completed.
func latencies(reqs []request, w *window) (lat []float64, cells int, last time.Time) {
	last = w.start
	for i := range w.outs {
		o := &w.outs[i]
		if !o.ok() {
			continue
		}
		lat = append(lat, ms(o.latency()))
		cells += reqs[i].cells
		if o.done.After(last) {
			last = o.done
		}
	}
	sort.Float64s(lat)
	return lat, cells, last
}

// loadgen reports how well the generator kept the schedule of in, which
// sent window w: the p99 of how late it sent, the rate it was asked for
// and the rate it achieved. A closed loop offers exactly what it achieves.
func loadgen(in *inputs, w *window) (lagP99, offered, achieved float64) {
	var lags []float64
	lastSent := w.start
	for i := range w.outs {
		lags = append(lags, ms(w.outs[i].lag))
		if w.outs[i].sent.After(lastSent) {
			lastSent = w.outs[i].sent
		}
	}
	sort.Float64s(lags)
	if !in.openLoop {
		_, _, last := latencies(in.timed, w)
		achieved = ratio(float64(len(w.outs)), last.Sub(w.start).Seconds())
		return quantile(lags, 0.99), achieved, achieved
	}
	span := max(in.window, lastSent.Sub(w.start)).Seconds()
	return quantile(lags, 0.99), ratio(float64(len(w.outs)), in.window.Seconds()), ratio(float64(len(w.outs)), span)
}

// warnLoad flags an open-loop window whose schedule the generator could
// not keep: it then offered less load than the workload asks for. Send
// lag alone does not invalidate a run, because latency is measured from
// the scheduled time and so already includes it.
func (r *run) warnLoad(w *window) {
	lag, offered, achieved := loadgen(r.in, w)
	if r.in.openLoop && achieved < 0.99*offered {
		fmt.Fprintf(r.stderr, "%s: load generator fell behind (%.1f of %.1f req/s, send lag p99 %.3f ms): treat this run as invalid\n",
			r.in.workload, achieved, offered, lag)
	}
}

// traced measures the first half of the window twice, traced and then
// untraced, replays the traced half layer by layer, and fills in the
// per-layer metrics. The untraced rerun comes second so that anything the
// first window leaves warm in the process favours it: overhead_frac then
// errs high, never low. It returns each layer's self time for
// layers.json and writes the spans to traceDir/<workload>.trace.json.
func (r *run) traced(traceDir string) (map[string]map[string]layerTime, error) {
	half := r.in.half()
	tr := &tracer{}
	defer tr.closeIdle()
	if r.in.workload == "disk-restart" {
		r.snapshot = filepath.Join(r.workDir, "replay-store")
	}
	d, err := r.setup(tr)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	w := r.measure(d, half.timed)
	tr.on.Store(false)
	if err := d.close(); err != nil {
		return nil, err
	}
	if d, err = r.setup(nil); err != nil {
		return nil, err
	}
	plain := r.measure(d, half.timed)
	if err := d.close(); err != nil {
		return nil, err
	}
	for i := range w.outs {
		if o := &w.outs[i]; !o.sent.IsZero() {
			tr.add(span{kind: "loadgen.request", node: "client", key: strconv.Itoa(i), start: o.sent, end: o.done})
		}
	}
	for _, win := range []*window{w, plain} {
		if err := r.check(half.timed, win); err != nil {
			return nil, err
		}
	}

	rp, err := r.newReplayer(tr)
	if err != nil {
		return nil, err
	}
	handler := map[string]time.Duration{}
	for _, s := range tr.snapshot() {
		if s.kind == "service.handler" {
			handler[s.rid] = s.end.Sub(s.start)
		}
	}
	var replayed, served time.Duration
	tr.on.Store(true)
	for i := 0; i < len(half.timed); i += r.stride() {
		if !w.outs[i].ok() {
			continue
		}
		wall, err := rp.request(i, &half.timed[i], w.outs[i].digest)
		if err != nil {
			return nil, fmt.Errorf("replay request %d: %w", i, err)
		}
		if h, ok := handler[strconv.Itoa(i)]; ok {
			replayed += wall
			served += h
		}
	}
	err = rp.close()
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	for k := 0; k < rp.mismatches; k++ {
		r.fail("replay produced other bytes than the timed run")
	}
	r.res.Metrics = r.layerMetrics(half, plain, w, tr, rp, handler, 1-ratio(float64(replayed), float64(served)))
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(filepath.Join(traceDir, r.in.workload+".trace.json")); err != nil {
		return nil, err
	}
	return tr.selfTimes(), nil
}

// newReplayer builds the replay's instances in the state the traced
// window started from.
func (r *run) newReplayer(tr *tracer) (*replayer, error) {
	rp := &replayer{
		tr:     tr,
		bodies: resultcache.New(cacheBytes),
		cells:  resultcache.New(cacheBytes),
		sim:    obs.NewCampaignStats(),
		ops:    map[string][]time.Duration{},
	}
	var err error
	switch r.in.workload {
	case "fleet":
		tr.on.Store(true) // the replay fleet's round trips are timed from its first dispatch
		rp.fleet, err = bootFleet(tr, "replay-")
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
	case "disk-restart":
		if rp.store, err = diskstore.Open(r.snapshot, diskstore.Options{EngineVersion: version.Engine}); err != nil {
			return nil, err
		}
	case "warm-hit":
		// The timed run's caches held the catalogue when the window began.
		cat := make([]*request, len(r.in.setup))
		for i := range r.in.setup {
			cat[i] = &r.in.setup[i]
		}
		if err := r.oracle.prepare(cat); err != nil {
			return nil, err
		}
		for _, c := range cat {
			body, err := r.oracle.body(c)
			if err != nil {
				return nil, err
			}
			key, _, err := bodyKey(c)
			if err != nil {
				return nil, err
			}
			rp.bodies.Put(key, body)
			plan, err := referencePlan(c)
			if err != nil {
				return nil, err
			}
			for k := range plan.Cells {
				ck := cellKey(&plan.Cells[k])
				rp.cells.Put(ck, r.oracle.partials[ck])
			}
		}
	}
	return rp, nil
}

// layerMetrics assembles the per-layer metrics of a traced run; see
// README.md for what each means and which end-to-end metric it moves. A
// layer the workload does not deploy or run reads 0.
func (r *run) layerMetrics(half *inputs, plain, w *window, tr *tracer, rp *replayer, handler map[string]time.Duration, unattributed float64) map[string]metric {
	d := w.delta
	lag, offered, achieved := loadgen(half, plain)
	plainLat, _, _ := latencies(half.timed, plain)
	lat, _, _ := latencies(half.timed, w)

	var handlers []time.Duration
	var overhead []float64
	for i := range w.outs {
		if h, ok := handler[strconv.Itoa(i)]; ok && w.outs[i].ok() {
			handlers = append(handlers, h)
			overhead = append(overhead, ms(w.outs[i].done.Sub(w.outs[i].sent)-h))
		}
	}
	sort.Float64s(overhead)

	cells := 0
	for _, q := range half.timed {
		cells += q.cells
	}
	// Analytic cells run in the daemon, or on the fleet in its workers.
	analyticSec := d[`affinityd_cell_engine_exec_seconds_sum{engine="analytic"}`] + d["affinityd_fleet_worker_exec_seconds_sum"]
	analyticN := d[`affinityd_cell_engine_exec_seconds_count{engine="analytic"}`] + d["affinityd_fleet_worker_exec_seconds_count"]
	sched := rp.ops["sched.exec"]
	rtt := sortedMs(tr.durations("fleet.dispatch"))
	workerHandler := meanNs(tr.durations("fleet.worker_handler"))
	storeGets := sortedMs(rp.ops["diskstore.get"])
	cellLookups := d["affinityd_cell_hits_total"] + d["affinityd_cell_disk_hits_total"] + d["affinityd_cell_misses_total"]
	var open float64
	if len(r.opens) > 0 {
		ds := make([]float64, len(r.opens))
		for i, o := range r.opens {
			ds[i] = ms(o)
		}
		open = median(ds)
	}

	n := float64(len(half.timed))
	return map[string]metric{
		"loadgen.lag_p99_ms":         {lag, "ms"},
		"loadgen.offered_rps":        {offered, "1/s"},
		"loadgen.achieved_rps":       {achieved, "1/s"},
		"loadgen.latency_p90_ms":     {quantile(plainLat, 0.90), "ms"},
		"loadgen.latency_p99_ms":     {quantile(plainLat, 0.99), "ms"},
		"service.handler_p50_ms":     {quantile(sortedMs(handlers), 0.50), "ms"},
		"service.handler_p99_ms":     {quantile(sortedMs(handlers), 0.99), "ms"},
		"service.http_overhead_ms":   {quantile(overhead, 0.50), "ms"},
		"service.admit_ms":           {1e3 * d.mean("affinityd_request_admit_seconds"), "ms"},
		"service.queue_wait_ms":      {1e3 * d.mean("affinityd_request_queue_wait_seconds"), "ms"},
		"service.jobs_deduped":       {d["affinityd_jobs_deduped_total"], "count"},
		"service.jobs_rejected":      {d["affinityd_jobs_rejected_total"], "count"},
		"service.allocs_per_request": {ratio(float64(plain.allocs), n), "count"},
		"resultcache.body_hit_ratio": {ratio(d["affinityd_cache_hits_total"],
			d["affinityd_cache_hits_total"]+d["affinityd_cache_misses_total"]), "ratio"},
		"resultcache.cell_hit_ratio":     {ratio(d["affinityd_cell_hits_total"], cellLookups), "ratio"},
		"resultcache.get_ns":             {meanNs(rp.ops["resultcache.get"]), "ns"},
		"resultcache.put_ns":             {meanNs(rp.ops["resultcache.put"]), "ns"},
		"resultcache.evictions":          {d["affinityd_cache_evictions_total"] + d["affinityd_cellcache_evictions_total"], "count"},
		"diskstore.open_ms":              {open, "ms"},
		"diskstore.get_us_p50":           {1e3 * quantile(storeGets, 0.50), "us"},
		"diskstore.get_us_p99":           {1e3 * quantile(storeGets, 0.99), "us"},
		"diskstore.put_ns":               {meanNs(rp.ops["diskstore.put"]), "ns"},
		"diskstore.hits":                 {d["affinityd_store_hits_total"], "count"},
		"diskstore.misses":               {d["affinityd_store_misses_total"], "count"},
		"diskstore.dropped":              {d["affinityd_store_dropped_total"], "count"},
		"diskstore.flushed_frames":       {d["affinityd_store_flushed_frames_total"], "count"},
		"experiments.plan_us":            {meanNs(rp.ops["experiments.plan"]) / 1e3, "us"},
		"experiments.merge_us":           {meanNs(rp.ops["experiments.merge"]) / 1e3, "us"},
		"experiments.cells_per_campaign": {ratio(float64(cells), n), "count"},
		"experiments.cells_executed":     {d["affinityd_cell_executions_total"], "count"},
		"report.encode_us":               {meanNs(rp.ops["report.encode"]) / 1e3, "us"},
		"sched.cell_exec_ms":             {meanNs(sched) / 1e6, "ms"},
		"sched.ns_per_event":             {ratio(sumNs(sched), float64(rp.sim.Snapshot().Total.Events)), "ns"},
		"sched.sim_events":               {d["affinityd_sim_events_total"], "count"},
		"sched.reallocations":            {d["affinityd_sim_reallocations_total"], "count"},
		"measure.cell_exec_ms":           {meanNs(rp.ops["measure.exec"]) / 1e6, "ms"},
		"analytic.cell_exec_us":          {1e6 * ratio(analyticSec, analyticN), "us"},
		"fleet.dispatches":               {d["affinityd_fleet_dispatches_total"], "count"},
		"fleet.useful_ratio":             {ratio(d["affinityd_fleet_remote_cells_total"], d["affinityd_fleet_dispatches_total"]), "ratio"},
		"fleet.retries":                  {d["affinityd_fleet_retries_total"], "count"},
		"fleet.hedges":                   {d["affinityd_fleet_hedges_total"], "count"},
		"fleet.fallbacks":                {d["affinityd_fleet_local_fallbacks_total"], "count"},
		"fleet.worker_fills":             {d["affinityd_fleet_worker_fills_total"], "count"},
		"fleet.rtt_ms_p50":               {quantile(rtt, 0.50), "ms"},
		"fleet.rtt_ms_p99":               {quantile(rtt, 0.99), "ms"},
		"fleet.worker_handler_us":        {workerHandler / 1e3, "us"},
		"fleet.dispatch_overhead_us":     {(meanNs(tr.durations("fleet.dispatch")) - workerHandler) / 1e3, "us"},
		"fleet.peer_probe_us":            {meanNs(tr.durations("fleet.peer_probe")) / 1e3, "us"},
		"trace.unattributed_frac":        {unattributed, "fraction"},
		"trace.overhead_frac":            {ratio(quantile(lat, 0.5), quantile(plainLat, 0.5)) - 1, "fraction"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// sumNs returns the total duration in nanoseconds.
func sumNs(ds []time.Duration) float64 {
	var sum float64
	for _, d := range ds {
		sum += float64(d)
	}
	return sum
}

// meanNs returns the mean duration in nanoseconds.
func meanNs(ds []time.Duration) float64 { return ratio(sumNs(ds), float64(len(ds))) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
