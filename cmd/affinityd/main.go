// Command affinityd serves the repo's experiment campaigns as a
// long-running HTTP/JSON daemon: POST a campaign request, get the result
// body — memoized in a content-addressed cache, deduplicated against
// identical in-flight requests, admission-controlled behind a bounded
// queue, and cancellable. Campaigns execute cell by cell through a
// second content-addressed cache, so overlapping or re-submitted
// campaigns re-run only the cells they have never completed, and
// GET /v1/jobs/{id}/events streams per-cell progress as NDJSON.
// See internal/service for the API and semantics.
//
// Usage:
//
//	affinityd [-addr HOST:PORT] [-queue N] [-jobs N] [-cache-mb MB]
//	          [-retry-after SEC] [-job-ttl-sec SEC] [-max-jobs N]
//	          [-store-dir DIR] [-store-budget MB] [-store-sync]
//	          [-coordinator] [-join URL] [-advertise URL] [-hedge-ms N]
//	          [-hedge-budget N] [-fleet-token SECRET]
//	          [-workers N] [-seed N] [-cpuprofile FILE] [-memprofile FILE]
//	          [-stats] [-pprof]
//
//	-addr        listen address (default 127.0.0.1:8642; use :0 for a
//	             random port, printed on startup)
//	-queue       max queued campaigns before requests get 429 (default 16)
//	-jobs        campaigns executed concurrently (default 2)
//	-cache-mb    result-cache byte budget in MiB (default 64)
//	-retry-after Retry-After hint on 429 responses, seconds (default 2)
//	-job-ttl-sec seconds a finished job's status/result stay pollable at
//	             /v1/jobs before eviction (default 300); evicted ids
//	             return 404, but the result body stays in the cache
//	-max-jobs    retained finished jobs regardless of age (default 256)
//	-store-dir   directory for the persistent result store; results (both
//	             campaign bodies and individual cells) survive restarts
//	             and are re-served without executing (default: off)
//	-store-budget disk byte budget for -store-dir in MiB; the store
//	             evicts cheapest-to-recompute entries first (0 = no limit)
//	-store-sync  fsync each write-behind flush batch (safer on power loss,
//	             slower; without it a crash can lose the last batch)
//	-coordinator run as a fleet coordinator: campaign cells that miss
//	             both cache tiers are dispatched to workers that joined
//	             via -join, with retry, hedged re-dispatch, and local
//	             fallback (see internal/fleet and GET /v1/workers)
//	-join        run as a fleet worker: register with (and heartbeat)
//	             the coordinator at this base URL and execute cells it
//	             dispatches; mutually exclusive with -coordinator
//	-advertise   base URL workers advertise to the coordinator (default:
//	             derived from the bound listener address — set it when
//	             behind NAT or a non-loopback interface)
//	-hedge-ms    coordinator: milliseconds before a straggling batch of
//	             cells is re-dispatched to another worker (default 1000)
//	-hedge-budget coordinator: max retries + hedges one campaign may spend
//	             across all its batches (default 16, <0 = unlimited); once
//	             dry, cells fall back to local execution and the job view
//	             reports budget_exhausted
//	-fleet-token shared secret authenticating every fleet request (HMAC
//	             over method, path, timestamp, and body; constant-time
//	             verification). Set the same value on the coordinator and
//	             every worker; empty keeps the open trusted-network mode
//	-workers     per-campaign simulation-cell concurrency applied when a
//	             request omits params.workers (0 = all CPUs)
//	-seed        default root seed for requests that omit params.seed
//	-stats       print each completed job's response-time decomposition
//	             table to stdout
//	-pprof       expose /debug/pprof/ runtime profiles (off by default)
//
// Quick check once running:
//
//	curl -s localhost:8642/healthz
//	curl -s -X POST localhost:8642/v1/campaigns \
//	     -d '{"kind":"table1","params":{"fast":true}}'
//	curl -s localhost:8642/v1/campaigns            # kinds + param schemas
//	curl -s 'localhost:8642/v1/jobs?status=done&limit=10'
//	curl -sN localhost:8642/v1/jobs/j00000001/events  # NDJSON progress
//
// SIGINT/SIGTERM drain gracefully: queued jobs are cancelled, in-flight
// jobs run to completion (up to -drain-sec), the persistent store's
// write-behind queue is flushed and fsynced, then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/diskstore"
	"repro/internal/fleet"
	"repro/internal/resultcache"
	"repro/internal/service"
	"repro/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "affinityd:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	fs := flag.NewFlagSet("affinityd", flag.ExitOnError)
	common := cliflags.Register(fs)
	addr := fs.String("addr", "127.0.0.1:8642", "listen address (:0 = random port)")
	queue := fs.Int("queue", 16, "max queued campaigns before 429")
	jobs := fs.Int("jobs", 2, "campaigns executed concurrently")
	cacheMB := fs.Int64("cache-mb", 64, "result-cache budget (MiB)")
	retryAfter := fs.Int("retry-after", 2, "Retry-After hint on 429 (seconds)")
	jobTTL := fs.Int("job-ttl-sec", 300, "seconds finished jobs stay pollable before eviction")
	maxJobs := fs.Int("max-jobs", 256, "max retained finished jobs regardless of age")
	drainSec := fs.Int("drain-sec", 60, "max seconds to drain in-flight jobs at shutdown")
	storeDir := fs.String("store-dir", "", "persistent result-store directory (empty = no persistence)")
	storeBudget := fs.Int64("store-budget", 0, "persistent-store disk budget (MiB, 0 = no limit)")
	storeSync := fs.Bool("store-sync", false, "fsync each persistent-store flush batch")
	coordinator := fs.Bool("coordinator", false, "run as fleet coordinator (dispatch cells to joined workers)")
	join := fs.String("join", "", "run as fleet worker: coordinator base URL to register with")
	advertise := fs.String("advertise", "", "base URL to advertise to the coordinator (default: bound address)")
	hedgeMS := fs.Int("hedge-ms", 1000, "coordinator: ms before a straggling batch is re-dispatched")
	fleetToken := fs.String("fleet-token", "", "shared secret authenticating fleet requests (HMAC; empty = unauthenticated)")
	hedgeBudget := fs.Int("hedge-budget", 16, "coordinator: max retries+hedges per campaign (<0 = unlimited)")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof/ runtime profiles")
	fs.Parse(os.Args[1:])
	if *coordinator && *join != "" {
		return fmt.Errorf("-coordinator and -join are mutually exclusive (a worker serves its own /v1 traffic but does not dispatch)")
	}

	stopProf, err := common.StartProfiling()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && err == nil {
			err = perr
		}
	}()

	cfg := service.Config{
		QueueDepth:  *queue,
		JobWorkers:  *jobs,
		CacheBytes:  *cacheMB << 20,
		CellWorkers: common.Workers,
		DefaultSeed: common.Seed,
		RetryAfter:  time.Duration(*retryAfter) * time.Second,
		JobTTL:      time.Duration(*jobTTL) * time.Second,
		MaxJobs:     *maxJobs,
		EnablePprof: *pprofOn,
	}
	if common.Stats {
		// -stats on the daemon prints each completed job's decomposition
		// table to stdout as it finishes.
		cfg.StatsWriter = os.Stdout
	}
	if *storeDir != "" {
		store, serr := diskstore.Open(*storeDir, diskstore.Options{
			Budget:        *storeBudget << 20,
			SyncEach:      *storeSync,
			EngineVersion: version.Engine,
		})
		if serr != nil {
			return fmt.Errorf("open store %s: %w", *storeDir, serr)
		}
		// Close after the drain below: Shutdown already synced the
		// write-behind queue, so Close here just releases file handles.
		defer store.Close()
		st := store.Stats()
		fmt.Printf("affinityd: store %s: %d entries in %d segments (%d bytes)\n",
			*storeDir, st.Entries, st.Segments, st.DiskBytes)
		cfg.Store = store
	}
	// The cell cache is built here so a worker's execute path and its
	// service share one instance: a dispatched cell reuses what the
	// worker's own /v1 traffic cached.
	cfg.CellCache = resultcache.New(cfg.CacheBytes)
	var fleetWorker *fleet.Worker
	switch {
	case *coordinator:
		cfg.HedgeBudget = *hedgeBudget
		cfg.Fleet = fleet.NewCoordinator(fleet.Config{
			Token:      *fleetToken,
			HedgeDelay: time.Duration(*hedgeMS) * time.Millisecond,
		})
		authMode := "unauthenticated"
		if *fleetToken != "" {
			authMode = "authenticated"
		}
		fmt.Printf("affinityd: coordinator mode (%s; hedge after %dms, budget %d; workers join at %s)\n",
			authMode, *hedgeMS, *hedgeBudget, fleet.PathRegister)
	case *join != "":
		fleetWorker = fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: *join,
			Token:       *fleetToken,
			Capacity:    common.Workers,
			Cache:       cfg.CellCache,
			Store:       cfg.Store,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "affinityd: "+format+"\n", args...)
			},
		})
		cfg.FleetWorker = fleetWorker
	}
	srv := service.New(cfg)

	// Install the drain handler before announcing the port: a supervisor
	// that signals as soon as it reads the listening line must get a
	// drain, not the default handler's immediate death.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The smoke gate and scripts parse this line for the bound port.
	fmt.Printf("affinityd: listening on http://%s (engine %s, %s)\n",
		ln.Addr(), version.Engine, version.GitSHA())
	if fleetWorker != nil {
		adv := *advertise
		if adv == "" {
			adv = "http://" + ln.Addr().String()
		}
		// Start registers synchronously, but a refused registration (401
		// token mismatch, 409 engine skew — both logged above by the
		// worker) leaves the heartbeat loop retrying, so this line claims
		// only what is certain: worker mode is on and aimed at the
		// coordinator.
		fleetWorker.Start(adv)
		defer fleetWorker.Stop()
		fmt.Printf("affinityd: worker mode (registering with %s, advertising %s)\n", *join, adv)
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("affinityd: %v — draining (in-flight jobs finish, queued jobs cancel)\n", s)
	case err := <-serveErr:
		return err
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSec)*time.Second)
	defer cancel()
	// Drain the serving core first (the listener stays up so final status
	// polls are answered), then close the listener.
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "affinityd: drain incomplete: %v\n", err)
	}
	if err := hs.Shutdown(drainCtx); err != nil {
		return err
	}
	fmt.Println("affinityd: drained, exiting")
	return nil
}
