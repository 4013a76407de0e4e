package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/version"
)

// addTestWorker inserts a live worker directly into the registry, the
// way handleRegister would.
func addTestWorker(c *Coordinator, url string, capacity int) {
	now := time.Now()
	c.mu.Lock()
	c.workers[url] = &workerState{
		id:            WorkerID(url),
		url:           url,
		capacity:      capacity,
		engineVersion: version.Engine,
		registered:    now,
		lastSeen:      now,
		rttHist:       &obs.Histogram{},
	}
	c.mu.Unlock()
}

// TestPlacementNeverExceedsCapacity is the scorer's safety property:
// across randomized fleets, pick never reserves a slot on a worker whose
// capacity is fully occupied, the fleet saturates at exactly the sum of
// capacities, and a saturated fleet yields no placement at all.
func TestPlacementNeverExceedsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		c := NewCoordinator(Config{})
		capacities := make(map[string]int)
		total := 0
		for i := 0; i < 1+rng.Intn(6); i++ {
			url := fmt.Sprintf("http://w%d", i)
			capa := 1 + rng.Intn(4)
			capacities[url] = capa
			total += capa
			addTestWorker(c, url, capa)
			// Random pre-existing placement signals must not break the
			// invariant either.
			c.mu.Lock()
			ws := c.workers[url]
			ws.rttEWMANs = float64(rng.Intn(50)) * 1e6
			if rng.Intn(3) == 0 {
				ws.addFailure(time.Now())
			}
			c.mu.Unlock()
		}
		picked := make(map[string]int)
		for n := 0; n < total; n++ {
			url, placement := c.pick(map[string]bool{})
			if url == "" {
				t.Fatalf("trial %d: fleet refused placement %d/%d with capacity free", trial, n, total)
			}
			if placement == "" {
				t.Fatalf("trial %d: empty placement attribution", trial)
			}
			picked[url]++
			if picked[url] > capacities[url] {
				t.Fatalf("trial %d: %s picked %d times, capacity %d", trial, url, picked[url], capacities[url])
			}
		}
		// Saturated: every slot held (nothing released), so the next pick
		// must refuse rather than overload anyone.
		if url, _ := c.pick(map[string]bool{}); url != "" {
			t.Fatalf("trial %d: pick placed on %s beyond fleet capacity", trial, url)
		}
		if c.Stats.PlacementCapacitySkips.Load() == 0 {
			t.Errorf("trial %d: saturation never counted a capacity skip", trial)
		}
	}
}

// TestPlacementHysteresisConverges pins the failure penalty's shape: a
// failed worker is immediately deprioritized, stays deprioritized while
// the penalty dominates, and converges back to winning placements once
// the decay crosses the floor — deprioritized, never dropped.
func TestPlacementHysteresisConverges(t *testing.T) {
	c := NewCoordinator(Config{})
	// flaky would win on load (bigger capacity) if penalties were equal.
	addTestWorker(c, "http://flaky", 8)
	addTestWorker(c, "http://steady", 2)

	url, _ := c.pick(map[string]bool{})
	if url != "http://flaky" {
		t.Fatalf("baseline pick = %s, want the higher-capacity worker", url)
	}
	c.release("http://flaky", 0, refused) // soft failure: penalize, keep

	// Immediately after the failure the penalty (1.0) dwarfs the load
	// advantage, so the steady worker wins.
	url, _ = c.pick(map[string]bool{})
	if url != "http://steady" {
		t.Fatalf("post-failure pick = %s, want the steady worker", url)
	}
	c.release("http://steady", 0, served)

	// The worker is still registered — deprioritized is not dropped.
	if got := c.LiveWorkers(); got != 2 {
		t.Fatalf("LiveWorkers = %d after soft failure, want 2", got)
	}

	// Convergence: the decayed penalty reaches exactly 0 once it crosses
	// the floor, so the scores return to their baseline ordering.
	c.mu.Lock()
	flaky := c.workers["http://flaky"]
	now := flaky.penaltyAt
	if p := flaky.failurePenaltyAt(now); p != penaltyPerFailure {
		t.Errorf("penalty at failure time = %v, want %v", p, penaltyPerFailure)
	}
	if p := flaky.failurePenaltyAt(now.Add(penaltyHalfLife)); p != penaltyPerFailure/2 {
		t.Errorf("penalty after one half-life = %v, want %v", p, penaltyPerFailure/2)
	}
	converged := now.Add(20 * penaltyHalfLife) // 2^-20 is far below the floor
	if p := flaky.failurePenaltyAt(converged); p != 0 {
		t.Errorf("penalty after 20 half-lives = %v, want exactly 0", p)
	}
	sFlaky := flaky.score(converged, 0)
	sSteady := c.workers["http://steady"].score(converged, 0)
	c.mu.Unlock()
	if sFlaky >= sSteady {
		t.Errorf("converged scores: flaky %v >= steady %v, want baseline order restored", sFlaky, sSteady)
	}
}

// TestPlacementPrefersMeasuredRTT: with load equal, the worker with the
// lower RTT EWMA wins, and an unmeasured worker scores as if it matched
// the fastest (optimism earns fresh workers a measurement).
func TestPlacementPrefersMeasuredRTT(t *testing.T) {
	c := NewCoordinator(Config{})
	addTestWorker(c, "http://far", 4)
	addTestWorker(c, "http://near", 4)
	c.mu.Lock()
	c.workers["http://far"].rttEWMANs = 80e6 // 80ms
	c.workers["http://near"].rttEWMANs = 2e6 // 2ms
	c.mu.Unlock()

	url, placement := c.pick(map[string]bool{})
	if url != "http://near" {
		t.Fatalf("pick = %s (%s), want the near worker", url, placement)
	}
	// An unmeasured newcomer is scored optimistically — rtt term 1.0, as
	// if it matched the fastest candidate — never worse. With a lighter
	// load it therefore beats a measured worker outright.
	addTestWorker(c, "http://zfresh", 8)
	tried := map[string]bool{"http://near": true}
	url, _ = c.pick(tried)
	if url != "http://zfresh" {
		t.Fatalf("pick among {far, fresh} = %s, want the unmeasured fresh worker", url)
	}
	c.mu.Lock()
	fresh := c.workers["http://zfresh"].score(time.Now(), 80e6)
	far := c.workers["http://far"].score(time.Now(), 80e6)
	c.mu.Unlock()
	if fresh > far {
		t.Errorf("unmeasured score %v > measured-slowest score %v; optimism lost", fresh, far)
	}
}

// TestBudgetSemantics pins Budget's accounting: n units then latched
// exhaustion, nil and non-positive budgets unlimited.
func TestBudgetSemantics(t *testing.T) {
	b := NewBudget(2)
	if !b.TrySpend() || !b.TrySpend() {
		t.Fatal("budget refused within its allowance")
	}
	if b.Exhausted() {
		t.Fatal("Exhausted latched before any refusal")
	}
	if b.TrySpend() {
		t.Fatal("budget allowed a third spend of 2")
	}
	if !b.Exhausted() {
		t.Fatal("Exhausted not latched after refusal")
	}

	var nilBudget *Budget
	unlimited := NewBudget(0)
	for i := 0; i < 100; i++ {
		if !nilBudget.TrySpend() || !unlimited.TrySpend() {
			t.Fatal("unlimited budget refused")
		}
	}
	if nilBudget.Exhausted() || unlimited.Exhausted() {
		t.Fatal("unlimited budget reported exhaustion")
	}
}

// TestDispatchBudgetExhausted: with every worker dead and a one-unit
// budget, the dispatch spends its single retry, then stops relaunching
// and reports ErrBudgetExhausted — the caller's cue to run locally.
func TestDispatchBudgetExhausted(t *testing.T) {
	c := NewCoordinator(Config{Backoff: time.Millisecond, HedgeDelay: time.Minute})
	ts := coordServer(t, c)
	for i := 0; i < 3; i++ {
		dead := httptest.NewServer(nil)
		url := dead.URL
		dead.Close()
		registerWorker(t, ts.URL, url, 4, version.Engine)
	}

	budget := NewBudget(1)
	_, err := c.DispatchBudget(context.Background(), execReq("c0"), budget)
	if err != ErrBudgetExhausted {
		t.Fatalf("DispatchBudget error = %v, want ErrBudgetExhausted", err)
	}
	if !budget.Exhausted() {
		t.Error("budget not latched exhausted")
	}
	if got := c.Stats.Retries.Load(); got != 1 {
		t.Errorf("Retries = %d, want exactly the budgeted 1", got)
	}
	// With the budget already dry, the next dispatch cannot even retry:
	// one attempt on the last live worker, then exhaustion again (every
	// attempt failed and nothing may relaunch).
	if _, err := c.DispatchBudget(context.Background(), execReq("c1"), budget); err == nil {
		t.Fatal("second dispatch succeeded with all workers dead")
	}
}
