package workload

import "sync"

// Graph construction dominated the allocation profile of every campaign:
// the same MVA/MATRIX/GRAVITY instances were rebuilt for each of a
// campaign's (mix, policy, replication) cells, tens of megabytes of
// identical immutable DAG per run. Because the standard constructors are
// pure functions of their parameters (GRAVITY includes its jitter seed),
// their Graphs can be memoized and shared: a Graph is immutable after
// Build, and Jobs copy all mutable per-run state out of it.
//
// The cache is bounded; filling it past graphCacheMax evicts everything
// (simple, and harmless — eviction only costs a rebuild, never changes a
// result). Each entry is built once: callers racing on a key that is not
// yet built wait for the first one's build instead of building their own
// copy. Sharing is concurrency-safe: campaign workers only read the cached
// Graphs.

// graphKey identifies one memoizable graph construction.
type graphKey struct {
	kind   string // constructor name: "mva", "matrix", "gravity"
	a, b   int    // grid size / block count / (steps, width)
	w1, w2 int64  // work parameters in ns
	seed   uint64 // jitter seed (gravity only)
}

const graphCacheMax = 256

// graphEntry is one key's graph, built at most once. A build that panics
// stores its panic value, which every caller of the key re-raises.
type graphEntry struct {
	once     sync.Once
	g        *Graph
	panicked any
}

var graphCache = struct {
	sync.Mutex
	m map[graphKey]*graphEntry
}{m: make(map[graphKey]*graphEntry)}

// cachedGraph returns the memoized graph for key, building it with build
// on first use.
func cachedGraph(key graphKey, build func() *Graph) *Graph {
	graphCache.Lock()
	e, ok := graphCache.m[key]
	if !ok {
		if len(graphCache.m) >= graphCacheMax {
			clear(graphCache.m)
		}
		e = new(graphEntry)
		graphCache.m[key] = e
	}
	graphCache.Unlock()
	e.once.Do(func() {
		defer func() { e.panicked = recover() }()
		e.g = build()
	})
	if e.panicked != nil {
		panic(e.panicked)
	}
	return e.g
}
