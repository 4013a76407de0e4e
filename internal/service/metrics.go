package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskstore"
	"repro/internal/obs"
)

// latencyBuckets are the upper bounds (seconds) of the per-campaign
// latency histogram. Campaigns span four orders of magnitude — a fast
// characterize takes milliseconds, a paper-scale future sweep minutes —
// so the buckets are roughly quartic.
var latencyBuckets = []float64{0.01, 0.05, 0.25, 1, 5, 30, 120, 600}

// histogram is a fixed-bucket latency histogram (Prometheus semantics:
// cumulative buckets plus sum and count).
type histogram struct {
	counts [9]uint64 // len(latencyBuckets)+1; last = +Inf
	sum    float64
	total  uint64
}

func (h *histogram) observe(sec float64) {
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += sec
	h.total++
}

// metrics aggregates the serving counters exposed at /metrics.
type metrics struct {
	server *Server

	submitted atomic.Uint64 // POST /v1/campaigns accepted for processing
	deduped   atomic.Uint64 // submissions coalesced onto an in-flight job
	rejected  atomic.Uint64 // 429s
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	reaped    atomic.Uint64 // terminal jobs evicted by TTL or MaxJobs cap
	inflight  atomic.Int64

	// Request-scoped span histograms, in nanoseconds (obs log2 buckets;
	// two atomic adds per observation, no floating point until render).
	spanCacheLookup obs.Histogram // result-cache Get on the submit path
	spanStoreLookup obs.Histogram // disk-store Get after a memory miss
	spanAdmit       obs.Histogram // admission / singleflight attach
	spanQueueWait   obs.Histogram // admitted -> dispatched by a worker
	spanExec        obs.Histogram // campaign execution wall time

	// cells counts the cell execution path: cache hits, misses,
	// completed executions, and the exec/merge latency histograms.
	cells obs.CellStats

	// sim aggregates the engine-level counters of every completed job's
	// CampaignStats; guarded by simMu (folds are per-job, off the request
	// hot path).
	simMu sync.Mutex
	sim   obs.SimStats

	mu      sync.Mutex
	latency map[string]*histogram // by campaign kind
}

func newMetrics(s *Server) *metrics {
	return &metrics{server: s, latency: make(map[string]*histogram)}
}

// span records one request-phase duration into the given histogram.
// Negative durations (clock steps) are clamped to zero rather than
// wrapping into the top bucket.
func span(h *obs.Histogram, d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// foldSim merges one completed job's accumulated simulation counters
// into the daemon-wide totals exposed at /metrics.
func (m *metrics) foldSim(cs *obs.CampaignStats) {
	if cs == nil {
		return
	}
	snap := cs.Snapshot()
	m.simMu.Lock()
	m.sim.Merge(snap.Total)
	m.simMu.Unlock()
}

// observe records one successful campaign execution's wall time.
func (m *metrics) observe(kind string, d time.Duration) {
	m.mu.Lock()
	h := m.latency[kind]
	if h == nil {
		h = &histogram{}
		m.latency[kind] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// serve renders the Prometheus text exposition format. Output ordering is
// deterministic (kinds sorted) so scrapes and tests are stable.
func (m *metrics) serve(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("affinityd_queue_depth", "Jobs waiting in the admission queue.", len(m.server.queue))
	gauge("affinityd_jobs_inflight", "Campaigns currently executing.", m.inflight.Load())
	counter("affinityd_jobs_submitted_total", "Campaign submissions accepted for processing.", m.submitted.Load())
	counter("affinityd_jobs_deduped_total", "Submissions coalesced onto an identical in-flight job.", m.deduped.Load())
	counter("affinityd_jobs_rejected_total", "Submissions rejected with 429 because the queue was full.", m.rejected.Load())
	counter("affinityd_jobs_completed_total", "Campaigns that finished successfully.", m.completed.Load())
	counter("affinityd_jobs_failed_total", "Campaigns that finished with an error.", m.failed.Load())
	counter("affinityd_jobs_canceled_total", "Campaigns canceled before completion.", m.canceled.Load())
	counter("affinityd_jobs_reaped_total", "Terminal jobs evicted from retention by TTL or the MaxJobs cap.", m.reaped.Load())
	m.server.mu.Lock()
	retained := len(m.server.jobs)
	m.server.mu.Unlock()
	gauge("affinityd_jobs_retained", "Jobs currently retained in the jobs map (queued, running, and recent terminal).", retained)

	cs := m.server.bodies.Memory.Stats()
	counter("affinityd_cache_hits_total", "Result-cache hits.", cs.Hits)
	counter("affinityd_cache_misses_total", "Result-cache misses.", cs.Misses)
	counter("affinityd_cache_evictions_total", "Result-cache LRU evictions.", cs.Evictions)
	gauge("affinityd_cache_entries", "Result-cache resident entries.", cs.Entries)
	gauge("affinityd_cache_bytes", "Result-cache resident bytes.", cs.Bytes)
	gauge("affinityd_cache_budget_bytes", "Result-cache byte budget.", cs.Budget)

	// Cell-level execution: how much of each campaign's grid was reused
	// from the per-cell cache versus freshly simulated.
	counter("affinityd_cell_hits_total", "Campaign cells satisfied from the cell cache.", m.cells.Hits.Load())
	counter("affinityd_cell_disk_hits_total", "Campaign cells satisfied from the persistent disk tier.", m.cells.DiskHits.Load())
	counter("affinityd_cell_misses_total", "Campaign cells not found in any cache tier.", m.cells.Misses.Load())
	counter("affinityd_cell_executions_total", "Campaign cells executed to completion.", m.cells.Executions.Load())
	// Engine-tier split of the executions above: discrete-event simulator
	// versus the analytic fast estimator (kinds without an engine choice
	// always simulate and count as sim).
	b.WriteString("# HELP affinityd_cell_engine_executions_total Campaign cells executed to completion, by engine tier.\n" +
		"# TYPE affinityd_cell_engine_executions_total counter\n")
	fmt.Fprintf(&b, "affinityd_cell_engine_executions_total{engine=\"sim\"} %d\n", m.cells.EngineSim.Load())
	fmt.Fprintf(&b, "affinityd_cell_engine_executions_total{engine=\"analytic\"} %d\n", m.cells.EngineAnalytic.Load())
	ccs := m.server.cells.Memory.Stats()
	counter("affinityd_cellcache_evictions_total", "Cell-cache LRU evictions.", ccs.Evictions)
	gauge("affinityd_cellcache_entries", "Cell-cache resident entries.", ccs.Entries)
	gauge("affinityd_cellcache_bytes", "Cell-cache resident bytes.", ccs.Bytes)
	gauge("affinityd_cellcache_budget_bytes", "Cell-cache byte budget.", ccs.Budget)

	// Persistent disk tier. Rendered even when no store is configured (all
	// zeros) so dashboards and scrape tests see a stable metric set.
	var ds diskstore.Stats
	if m.server.cells.Disk != nil {
		ds = m.server.cells.Disk.Stats()
	}
	counter("affinityd_store_hits_total", "Disk-store hits (CRC-verified reads).", ds.Hits)
	counter("affinityd_store_misses_total", "Disk-store misses.", ds.Misses)
	counter("affinityd_store_puts_total", "Disk-store writes accepted onto the write-behind queue.", ds.Puts)
	counter("affinityd_store_dropped_total", "Disk-store writes dropped because the write-behind queue was full.", ds.Dropped)
	counter("affinityd_store_flushed_frames_total", "Frames the background flusher appended to segment files.", ds.FlushedFrames)
	counter("affinityd_store_evictions_total", "Disk-store entries evicted under the byte budget.", ds.Evictions)
	counter("affinityd_store_corrupt_frames_total", "Frames rejected by CRC or framing checks (scan and read paths).", ds.CorruptFrames)
	counter("affinityd_store_dup_frames_total", "Duplicate-key frames skipped (scan and flush paths).", ds.DupFrames)
	counter("affinityd_store_truncated_bytes_total", "Bytes truncated from segment tails during startup recovery.", ds.TruncatedBytes)
	gauge("affinityd_store_entries", "Disk-store live entries.", ds.Entries)
	gauge("affinityd_store_segments", "Disk-store segment files.", ds.Segments)
	gauge("affinityd_store_disk_bytes", "Disk-store bytes on disk (live + dead).", ds.DiskBytes)
	gauge("affinityd_store_live_bytes", "Disk-store bytes referenced by live entries.", ds.LiveBytes)
	gauge("affinityd_store_budget_bytes", "Disk-store byte budget (0 = unbudgeted).", ds.Budget)
	gauge("affinityd_store_flush_queue_depth", "Writes waiting on the write-behind queue.", ds.QueueDepth)

	// Fleet dispatch (coordinator mode) and worker-side execution
	// counters; rendered only on daemons with a fleet role so
	// single-process scrapes keep their historical metric set.
	if fc := m.server.fleet; fc != nil {
		gauge("affinityd_fleet_workers", "Live registered fleet workers.", fc.LiveWorkers())
		counter("affinityd_fleet_batches_total", "Batch dispatch attempts launched, one execute exchange each (first tries, retries, hedges).", fc.Stats.Batches.Load())
		counter("affinityd_fleet_dispatches_total", "Cells of the batch dispatch attempts launched.", fc.Stats.Dispatches.Load())
		counter("affinityd_fleet_remote_cells_total", "Cells resolved by a fleet worker's result.", fc.Stats.RemoteCells.Load())
		counter("affinityd_fleet_retries_total", "Batch attempts relaunched after a failed one.", fc.Stats.Retries.Load())
		counter("affinityd_fleet_hedges_total", "Hedged re-dispatches of straggling batches.", fc.Stats.Hedges.Load())
		counter("affinityd_fleet_hedge_wins_total", "Batch dispatches won by a retry or hedge rather than the first attempt.", fc.Stats.HedgeWins.Load())
		counter("affinityd_fleet_duplicates_discarded_total", "Cells of valid duplicate answers discarded after a winner (at-least-once overshoot).", fc.Stats.Duplicates.Load())
		counter("affinityd_fleet_duplicate_mismatches_total", "Discarded duplicates whose cell body differed from the winner's (a determinism break).", fc.Stats.DuplicateMismatches.Load())
		counter("affinityd_fleet_attempt_failures_total", "Cells of batch attempts that returned an error.", fc.Stats.Failures.Load())
		counter("affinityd_fleet_local_fallbacks_total", "Cells whose batch dispatch returned no result, filled from a peer or executed locally.", fc.Stats.Fallbacks.Load())
		counter("affinityd_fleet_registrations_total", "New workers registered.", fc.Stats.Registrations.Load())
		counter("affinityd_fleet_auth_rejections_total", "Fleet requests refused with 401 (missing, garbled, or stale signature).", fc.Stats.AuthRejections.Load())
		counter("affinityd_fleet_expirations_total", "Workers dropped by heartbeat expiry or connection failure.", fc.Stats.Expirations.Load())
		counter("affinityd_fleet_worker_fills_total", "Cells taken from a worker's tiers after a dispatch returned nothing.", fc.Stats.WorkerFills.Load())
		counter("affinityd_fleet_placement_decisions_total", "Scored placement decisions (one per launched batch attempt).", fc.Stats.PlacementDecisions.Load())
		counter("affinityd_fleet_placement_capacity_skips_total", "Candidate workers passed over because all capacity slots were occupied.", fc.Stats.PlacementCapacitySkips.Load())
		counter("affinityd_fleet_placement_penalized_total", "Placement decisions made while a candidate carried a failure penalty.", fc.Stats.PlacementPenalized.Load())
		counter("affinityd_fleet_budget_exhausted_total", "Campaigns whose retry+hedge budget ran dry.", fc.Stats.BudgetExhausted.Load())
		nsHistogram(&b, "affinityd_fleet_rtt_seconds", "Round-trip time of successful batch attempts.", &fc.Stats.RTTNs)
	}
	if fw := m.server.fleetWorker; fw != nil {
		counter("affinityd_fleet_worker_requests_total", "Batch execute requests received from the coordinator.", fw.Stats.Requests.Load())
		counter("affinityd_fleet_worker_executions_total", "Cells this worker simulated to completion.", fw.Stats.Executions.Load())
		counter("affinityd_fleet_worker_cache_hits_total", "Dispatched cells served from the worker's memory cache.", fw.Stats.CacheHits.Load())
		counter("affinityd_fleet_worker_disk_hits_total", "Dispatched cells served from the worker's disk store.", fw.Stats.DiskHits.Load())
		counter("affinityd_fleet_worker_cell_serves_total", "Cell reads this worker answered from its own tiers.", fw.Stats.CellServes.Load())
		counter("affinityd_fleet_worker_auth_rejections_total", "Fleet requests this worker refused with 401.", fw.Stats.AuthRejections.Load())
		counter("affinityd_fleet_worker_rejections_total", "Execute requests refused with 429 at advertised capacity.", fw.Stats.Rejections.Load())
		counter("affinityd_fleet_worker_errors_total", "Execute requests that failed.", fw.Stats.Errors.Load())
		nsHistogram(&b, "affinityd_fleet_worker_exec_seconds", "Local execution wall time per executed cell.", &fw.Stats.ExecNs)
	}

	// Engine-level simulation counters, folded from every completed job's
	// per-run SimStats (the paper's Figure 1 decomposition).
	m.simMu.Lock()
	sim := m.sim
	m.simMu.Unlock()
	counter("affinityd_sim_runs_total", "Simulation runs executed by completed campaigns.", sim.Runs)
	counter("affinityd_sim_events_total", "Discrete events fired by completed campaigns.", sim.Events)
	counter("affinityd_sim_reallocations_total", "Processor reallocations (non-continuation dispatches).", sim.Reallocations)
	counter("affinityd_sim_migrations_total", "Reallocations that moved a task to a different processor.", sim.Migrations)
	counter("affinityd_sim_pa_charges_total", "Reallocations resuming on the last processor (P^A penalty).", sim.PACharges)
	counter("affinityd_sim_pna_charges_total", "Reallocations with no useful footprint left (P^NA penalty).", sim.PNACharges)
	counter("affinityd_sim_flushes_total", "Cache coherency invalidation sweeps.", sim.Flushes)
	gauge("affinityd_sim_penalty_seconds_total", "Simulated cache-reload transient time (cpu-seconds).", trimFloat(float64(sim.PenaltyNs)/1e9))
	gauge("affinityd_sim_eventq_peak", "Max pending-event depth across completed runs.", sim.EventqPeak)

	nsHistogram(&b, "affinityd_request_cache_lookup_seconds", "Result-cache lookup latency on the submit path.", &m.spanCacheLookup)
	nsHistogram(&b, "affinityd_request_store_lookup_seconds", "Disk-store lookup latency after a memory-cache miss.", &m.spanStoreLookup)
	nsHistogram(&b, "affinityd_request_admit_seconds", "Admission / singleflight-attach latency.", &m.spanAdmit)
	nsHistogram(&b, "affinityd_request_queue_wait_seconds", "Time an admitted job waited before a worker dispatched it.", &m.spanQueueWait)
	nsHistogram(&b, "affinityd_request_exec_seconds", "Campaign execution wall time per job.", &m.spanExec)
	nsHistogram(&b, "affinityd_cell_exec_seconds", "Per-cell execution wall time (cache misses only).", &m.cells.ExecNs)
	b.WriteString("# HELP affinityd_cell_engine_exec_seconds Per-cell execution wall time by engine tier (cache misses only).\n" +
		"# TYPE affinityd_cell_engine_exec_seconds histogram\n")
	nsHistogramSeries(&b, "affinityd_cell_engine_exec_seconds", `engine="sim"`, &m.cells.EngineSimNs)
	nsHistogramSeries(&b, "affinityd_cell_engine_exec_seconds", `engine="analytic"`, &m.cells.EngineAnalyticNs)
	nsHistogram(&b, "affinityd_cell_merge_seconds", "Per-campaign cell-merge wall time.", &m.cells.MergeNs)

	m.mu.Lock()
	kinds := make([]string, 0, len(m.latency))
	for k := range m.latency {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	if len(kinds) > 0 {
		b.WriteString("# HELP affinityd_campaign_latency_seconds Wall time of successful campaign executions.\n" +
			"# TYPE affinityd_campaign_latency_seconds histogram\n")
	}
	for _, k := range kinds {
		h := m.latency[k]
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			fmt.Fprintf(&b, "affinityd_campaign_latency_seconds_bucket{kind=%q,le=%q} %d\n", k, trimFloat(ub), cum)
		}
		fmt.Fprintf(&b, "affinityd_campaign_latency_seconds_bucket{kind=%q,le=\"+Inf\"} %d\n", k, h.total)
		fmt.Fprintf(&b, "affinityd_campaign_latency_seconds_sum{kind=%q} %g\n", k, h.sum)
		fmt.Fprintf(&b, "affinityd_campaign_latency_seconds_count{kind=%q} %d\n", k, h.total)
	}
	m.mu.Unlock()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// nsHistogram bucket bounds rendered as Prometheus le labels: exponents
// 10..36 of the obs log2 histogram, i.e. ~1 µs to ~69 s in powers of
// two. Observations below the range fold into the first bucket's
// cumulative count; above it, into +Inf.
const (
	nsHistMinExp = 10
	nsHistMaxExp = 36
)

// nsHistogram renders an obs.Histogram of nanosecond observations in the
// Prometheus text format, in seconds. Buckets are cumulative; the bound
// of exponent i is (2^i - 1) ns. Counts are read via a snapshot, so one
// render is internally consistent even while observations continue.
func nsHistogram(b *strings.Builder, name, help string, h *obs.Histogram) {
	snap := h.Snapshot()
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	cum := uint64(0)
	for i := 0; i < obs.HistogramBuckets; i++ {
		cum += snap.Counts[i]
		if i >= nsHistMinExp && i <= nsHistMaxExp {
			fmt.Fprintf(b, "%s_bucket{le=%q} %d\n", name, trimFloat(float64(obs.BucketBound(i))/1e9), cum)
		}
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.Count)
	fmt.Fprintf(b, "%s_sum %s\n", name, trimFloat(float64(snap.Sum)/1e9))
	fmt.Fprintf(b, "%s_count %d\n", name, snap.Count)
}

// nsHistogramSeries renders one labeled series of an ns-histogram family.
// The caller writes the family's HELP/TYPE header once; labels is the
// rendered label set shared by every line (e.g. `engine="sim"`).
func nsHistogramSeries(b *strings.Builder, name, labels string, h *obs.Histogram) {
	snap := h.Snapshot()
	cum := uint64(0)
	for i := 0; i < obs.HistogramBuckets; i++ {
		cum += snap.Counts[i]
		if i >= nsHistMinExp && i <= nsHistMaxExp {
			fmt.Fprintf(b, "%s_bucket{%s,le=%q} %d\n", name, labels, trimFloat(float64(obs.BucketBound(i))/1e9), cum)
		}
	}
	fmt.Fprintf(b, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, snap.Count)
	fmt.Fprintf(b, "%s_sum{%s} %s\n", name, labels, trimFloat(float64(snap.Sum)/1e9))
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, snap.Count)
}
