package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diskstore"
	"repro/internal/fleet"
	"repro/internal/resultcache"
	"repro/internal/service"
)

const (
	// clients is the number of load connections, and of goroutines sending
	// on them: two users of the daemon.
	clients = 2
	// Per-request timeouts: an open-loop request answered later than a
	// second has failed its user; a closed-loop caller waits a minute.
	openTimeout   = time.Second
	closedTimeout = time.Minute
	// benchIDHeader carries a request's index in the window, so the traced
	// run can join client and server spans.
	benchIDHeader = "X-Bench-Request"
	// fleetToken is the fleet's shared secret: the deployed fleet signs
	// every request, so the benchmark measures it with signing on.
	fleetToken = "affinitybench"
	// cacheBytes is cmd/affinityd's -cache-mb default, which the fleet
	// roles pass to the caches they build explicitly.
	cacheBytes = 64 << 20
)

// node is one affinityd serving core on its own loopback listener.
type node struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
}

func serve(srv *service.Server, h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { n.served <- n.hs.Serve(ln) }()
	return n, nil
}

// close drains the serving core, then closes the listener and its
// connections, and waits for Serve to return. The core has answered every
// request by then; http.Server.Shutdown would instead wait five seconds
// on any connection a client pool dialled but never used.
func (n *node) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if herr := n.hs.Close(); err == nil {
		err = herr
	}
	if serr := <-n.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// deployment is what one set-up boots: a single daemon, or a coordinator
// with its workers.
type deployment struct {
	front   *node // receives the load; the coordinator in a fleet
	workers []*node
	joined  []*fleet.Worker
	coord   *fleet.Coordinator
	store   *diskstore.Store
	dir     string // the store's directory, removed on close
}

// bootSingle starts a daemon with cmd/affinityd's defaults (the zero
// Config), over store when it is non-nil.
func bootSingle(store *diskstore.Store, tr *tracer) (*deployment, error) {
	srv := service.New(service.Config{Store: store})
	n, err := serve(srv, tr.wrap("front", srv.Handler()))
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return &deployment{front: n, store: store}, nil
}

// bootFleet starts a coordinator and two workers as cmd/affinityd's
// -coordinator and -join modes build them, with a fleet token and the
// default hedge delay and budget. prefix names the roles in traces.
func bootFleet(tr *tracer, prefix string) (*deployment, error) {
	cache := resultcache.New(cacheBytes)
	coord := fleet.NewCoordinator(fleet.Config{Cache: cache, Token: fleetToken, Client: tr.client(prefix + "coordinator")})
	srv := service.New(service.Config{CellCache: cache, Fleet: coord})
	front, err := serve(srv, tr.wrap(prefix+"coordinator", srv.Handler()))
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	d := &deployment{front: front, coord: coord}
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("%sworker-%d", prefix, i)
		wcache := resultcache.New(cacheBytes)
		fw := fleet.NewWorker(fleet.WorkerConfig{Coordinator: front.url, Token: fleetToken, Cache: wcache, Client: tr.client(name)})
		wsrv := service.New(service.Config{CellCache: wcache, FleetWorker: fw})
		wn, err := serve(wsrv, tr.wrap(name, wsrv.Handler()))
		if err != nil {
			wsrv.Shutdown(context.Background())
			d.close()
			return nil, err
		}
		d.workers = append(d.workers, wn)
		d.joined = append(d.joined, fw)
		fw.Start(wn.url)
	}
	if n := coord.LiveWorkers(); n != 2 {
		d.close()
		return nil, fmt.Errorf("fleet: %d of 2 workers registered", n)
	}
	return d, nil
}

func (d *deployment) close() error {
	for _, w := range d.joined {
		w.Stop()
	}
	err := d.front.close()
	for _, w := range d.workers {
		if werr := w.close(); err == nil {
			err = werr
		}
	}
	if d.store != nil {
		if serr := d.store.Close(); err == nil {
			err = serr
		}
	}
	if d.dir != "" {
		if rerr := os.RemoveAll(d.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// scrape reads every daemon's /metrics in process, summing series of the
// same name across the fleet.
func (d *deployment) scrape() counters {
	out := scrape(d.front.srv.Handler())
	for _, w := range d.workers {
		for k, v := range scrape(w.srv.Handler()) {
			out[k] += v
		}
	}
	return out
}

// counters maps a Prometheus series (name plus labels) to its value.
type counters map[string]float64

func scrape(h http.Handler) counters {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	out := counters{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func (c counters) sub(base counters) counters {
	out := counters{}
	for k, v := range c {
		out[k] = v - base[k]
	}
	return out
}

// mean returns the mean of a histogram's observations, in the histogram's
// unit (seconds for affinityd's), or 0 with none.
func (c counters) mean(hist string) float64 {
	if n := c[hist+"_count"]; n > 0 {
		return c[hist+"_sum"] / n
	}
	return 0
}

// newLoadClient is the client all load goes through: at most two
// connections, like two users.
func newLoadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}}
}

// outcome is one request's fate as its client saw it.
type outcome struct {
	due    time.Time // open loop: scheduled send; closed loop: actual send
	sent   time.Time
	done   time.Time
	lag    time.Duration // how late the generator sent, beyond any wait for a free client
	digest [sha256.Size]byte
	err    error
}

func (o *outcome) ok() bool { return o.err == nil }

// latency is measured from the due time, so in the open loop a stall is
// charged to every request queued behind it.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

func send(c *http.Client, base string, i int, r *request, timeout time.Duration) outcome {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	o := outcome{}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/campaigns", bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(benchIDHeader, strconv.Itoa(i))
	o.sent = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		o.done, o.err = time.Now(), err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done, o.err = time.Now(), err
	if err == nil && resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	o.digest = sha256.Sum256(body)
	return o
}

// closedLoop sends reqs from two clients, each sending its next request
// as soon as its previous reply is in.
func closedLoop(c *http.Client, base string, reqs []request) (outs []outcome, start time.Time) {
	outs = make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start = time.Now()
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ready := time.Now()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				o := send(c, base, i, &reqs[i], closedTimeout)
				o.due, o.lag = o.sent, o.sent.Sub(ready)
				outs[i] = o
				ready = time.Now()
			}
		}()
	}
	wg.Wait()
	return outs, start
}

// openLoop sends each request at its scheduled time, on whichever of the
// two clients is free; when both are busy the request waits, and that
// wait counts in its latency.
func openLoop(c *http.Client, base string, reqs []request) (outs []outcome, start time.Time) {
	outs = make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start = time.Now().Add(20 * time.Millisecond)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].at)
				free := time.Now()
				waitUntil(due)
				o := send(c, base, i, &reqs[i], openTimeout)
				if free.Before(due) {
					free = due
				}
				o.due, o.lag = due, o.sent.Sub(free)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs, start
}

// heapWatch samples the live heap every 100 ms until stopped.
type heapWatch struct {
	stop, done chan struct{}
	sum, n     float64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.sum += float64(s[0].Value.Uint64())
			h.n++
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// meanMiB stops the sampler and returns the mean sample. The live heap
// swings within a window (the engine's graph memo fills and clears), so
// its peak depends on where collections happened to fall; the mean
// repeats from run to run.
func (h *heapWatch) meanMiB() float64 {
	close(h.stop)
	<-h.done
	return h.sum / h.n / (1 << 20)
}

// heapAllocs is the process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
