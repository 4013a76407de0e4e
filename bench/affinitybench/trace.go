package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/fleet"
)

// span is one timed call at a layer boundary. Kinds are "<layer>.<op>".
// A span finds its parent either directly (replay spans) or by linking
// after the run: rid is the id it was called under, key the id its own
// callees carry (see parentRules).
type span struct {
	id, parent int
	kind       string
	node       string // the process role it ran in: client, front, worker-1, replay, ...
	rid, key   string
	start, end time.Time
}

func (s *span) layer() string { return s.kind[:strings.IndexByte(s.kind, '.')] }

// section groups spans for layers.json: the traced window, or the replay
// that attributes it.
func (s *span) section() string {
	if strings.HasPrefix(s.node, "replay") {
		return "replay"
	}
	return "window"
}

// tracer keeps spans in memory while on; nothing is written until the
// run ends.
type tracer struct {
	on         atomic.Bool
	mu         sync.Mutex
	spans      []span
	transports []*http.Transport
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.id = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.id
}

// finish ends an open span started by add.
func (t *tracer) finish(id int) {
	t.mu.Lock()
	t.spans[id-1].end = time.Now()
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap times the handler's requests that are layer boundaries: campaign
// submissions and the fleet's execute and cell-read endpoints.
func (t *tracer) wrap(node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		s := span{node: node, start: start, end: time.Now(), rid: r.Header.Get(api.RequestIDHeader)}
		s.key = s.rid
		switch p := r.URL.Path; {
		case p == "/v1/campaigns":
			s.kind, s.rid, s.key = "service.handler", r.Header.Get(benchIDHeader), w.Header().Get(api.RequestIDHeader)
		case p == fleet.PathExecute:
			s.kind = "fleet.worker_handler"
		case strings.HasPrefix(p, fleet.PathCells) && strings.HasSuffix(node, "coordinator"):
			s.kind = "fleet.cell_read"
		case strings.HasPrefix(p, fleet.PathCells):
			s.kind = "fleet.cell_serve"
		default:
			return
		}
		t.add(s)
	})
}

// client returns an HTTP client for one fleet role whose round trips are
// timed, with the transport settings the fleet's default client uses; nil
// (the fleet's own default) when t is nil.
func (t *tracer) client(node string) *http.Client {
	if t == nil {
		return nil
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}
	t.mu.Lock()
	t.transports = append(t.transports, tr)
	t.mu.Unlock()
	return &http.Client{Transport: &tracedTransport{t: t, node: node, base: tr}}
}

func (t *tracer) closeIdle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.transports {
		tr.CloseIdleConnections()
	}
}

// tracedTransport times dispatch attempts (coordinator to worker), peer
// probes (worker to coordinator) and relayed reads (coordinator to
// worker).
type tracedTransport struct {
	t    *tracer
	node string
	base http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	s := span{node: tt.node, rid: req.Header.Get(api.RequestIDHeader), start: time.Now()}
	s.key = s.rid
	switch p := req.URL.Path; {
	case req.Method == http.MethodPost && p == fleet.PathExecute:
		s.kind = "fleet.dispatch"
	case strings.HasPrefix(p, fleet.PathCells) && strings.HasSuffix(tt.node, "coordinator"):
		s.kind = "fleet.relay"
	case strings.HasPrefix(p, fleet.PathCells):
		s.kind = "fleet.peer_probe"
	default:
		return tt.base.RoundTrip(req)
	}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		s.end = time.Now()
		tt.t.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody ends its span when the caller closes the reply, so the span
// covers the whole exchange, reply bytes included.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = time.Now()
		b.t.add(b.s)
	})
	return err
}

// parentRules says where each window span kind's caller is: a span of
// one of the kinds listed, containing it in time, whose key equals its
// rid (byRID) and that ran in the same role (sameNode). The latest-
// starting candidate wins.
var parentRules = map[string]struct {
	kinds           []string
	byRID, sameNode bool
}{
	"service.handler":      {[]string{"loadgen.request"}, true, false},
	"fleet.dispatch":       {[]string{"service.handler", "fleet.call"}, true, false},
	"fleet.worker_handler": {[]string{"fleet.dispatch"}, true, false},
	"fleet.peer_probe":     {[]string{"fleet.worker_handler"}, true, true},
	"fleet.cell_read":      {[]string{"fleet.peer_probe"}, true, false},
	"fleet.relay":          {[]string{"fleet.cell_read"}, false, true},
	"fleet.cell_serve":     {[]string{"fleet.relay"}, false, false},
}

// link assigns parents to spans that did not get one when recorded.
// Callers hold t.mu.
func (t *tracer) link() {
	byKind := map[string][]int{}
	byKey := map[string][]int{}
	for i, s := range t.spans {
		byKind[s.kind] = append(byKind[s.kind], i)
		byKey[s.kind+"\x00"+s.key] = append(byKey[s.kind+"\x00"+s.key], i)
	}
	for i := range t.spans {
		s := &t.spans[i]
		rule, ok := parentRules[s.kind]
		if !ok || s.parent != 0 {
			continue
		}
		best := -1
		for _, k := range rule.kinds {
			cands := byKind[k]
			if rule.byRID {
				cands = byKey[k+"\x00"+s.rid]
			}
			for _, c := range cands {
				p := &t.spans[c]
				if p.start.After(s.start) || p.end.Before(s.end) || (rule.sameNode && p.node != s.node) {
					continue
				}
				if best < 0 || p.start.After(t.spans[best].start) {
					best = c
				}
			}
		}
		if best >= 0 {
			s.parent = t.spans[best].id
		}
	}
}

// layerTime is one layer's share of a section: the time its spans ran,
// less the part their callees' spans cover.
type layerTime struct {
	SelfMs float64 `json:"self_ms"`
	Spans  int     `json:"spans"`
}

// selfTimes links the spans and sums each layer's self time by section.
func (t *tracer) selfTimes() map[string]map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.link()
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := map[string]map[string]layerTime{}
	for i := range t.spans {
		s := &t.spans[i]
		var ivs [][2]time.Time
		for _, c := range children[s.id] {
			ivs = append(ivs, [2]time.Time{t.spans[c].start, t.spans[c].end})
		}
		self := s.end.Sub(s.start) - covered(ivs, s.start, s.end)
		sec := out[s.section()]
		if sec == nil {
			sec = map[string]layerTime{}
			out[s.section()] = sec
		}
		lt := sec[s.layer()]
		lt.SelfMs += float64(self) / 1e6
		lt.Spans++
		sec[s.layer()] = lt
	}
	return out
}

// covered is the length of the union of ivs within [lo, hi].
func covered(ivs [][2]time.Time, lo, hi time.Time) time.Duration {
	sort.Slice(ivs, func(i, k int) bool { return ivs[i][0].Before(ivs[k][0]) })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a.Before(cur) {
			a = cur
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			total += b.Sub(a)
			cur = b
		}
	}
	return total
}

// durations returns the lengths of the spans of one kind.
func (t *tracer) durations(kind string) []time.Duration {
	var out []time.Duration
	for _, s := range t.snapshot() {
		if s.kind == kind {
			out = append(out, s.end.Sub(s.start))
		}
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format, which
// Perfetto and chrome://tracing open: one process per role, one thread
// per span kind, and within a kind as many lanes as overlapping spans
// need.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return t.spans[order[a]].start.Before(t.spans[order[b]].start) })
	var t0 time.Time
	if len(order) > 0 {
		t0 = t.spans[order[0]].start
	}
	pids, tids := map[string]int{}, map[string]int{}
	lanes := map[string][]time.Time{} // node+kind -> end of each lane's last span
	var events []event
	for _, i := range order {
		s := &t.spans[i]
		pid, ok := pids[s.node]
		if !ok {
			pid = len(pids) + 1
			pids[s.node] = pid
			events = append(events, event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": s.node}})
		}
		lk := s.node + "\x00" + s.kind
		base, ok := tids[lk]
		if !ok {
			base = (len(tids) + 1) * 1000
			tids[lk] = base
		}
		lane := 0
		for lane < len(lanes[lk]) && lanes[lk][lane].After(s.start) {
			lane++
		}
		if lane == len(lanes[lk]) {
			lanes[lk] = append(lanes[lk], time.Time{})
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: pid, Tid: base + lane, Args: map[string]any{"name": s.kind}})
		}
		lanes[lk][lane] = s.end
		args := map[string]any{}
		if s.rid != "" {
			args["rid"] = s.rid
		}
		events = append(events, event{
			Name: s.kind, Cat: s.layer(), Ph: "X", Pid: pid, Tid: base + lane,
			Ts:   float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
