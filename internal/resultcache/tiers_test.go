package resultcache

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/diskstore"
)

func openStore(t *testing.T) *diskstore.Store {
	t.Helper()
	s, err := diskstore.Open(t.TempDir(), diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func syncStore(t *testing.T, s *diskstore.Store) {
	t.Helper()
	if err := s.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// fixed returns a run step producing body and counting its calls.
func fixed(body []byte, calls *int) func(context.Context) ([]byte, error) {
	return func(context.Context) ([]byte, error) {
		*calls++
		return body, nil
	}
}

func TestTiersNilTiers(t *testing.T) {
	body := []byte(`{"v":1}`)
	var runs int
	l, err := Tiers{}.Resolve(context.Background(), "k", nil, fixed(body, &runs))
	if err != nil || l.Source != Executed || !bytes.Equal(l.Body, body) || runs != 1 {
		t.Fatalf("no tiers: %+v err=%v runs=%d, want an execution", l, err, runs)
	}
	if l := (Tiers{}).Get("k"); l.Source != Miss {
		t.Errorf("no tiers: Get found %+v", l)
	}

	// Disk only: Put lands on disk and Get answers from it.
	store := openStore(t)
	disk := Tiers{Disk: store}
	disk.Put("k", body, 5)
	syncStore(t, store)
	if l := disk.Get("k"); l.Source != Disk || !bytes.Equal(l.Body, body) || l.CostNs != 5 || l.MemoryProbe != 0 {
		t.Errorf("disk only: Get = %+v, want a disk hit at cost 5 with no memory probe", l)
	}

	// Memory only: Put lands in memory and the disk probe never runs.
	mem := Tiers{Memory: New(1 << 20)}
	mem.Put("k", body, 6)
	if l := mem.Get("k"); l.Source != Memory || l.CostNs != 6 {
		t.Errorf("memory only: Get = %+v, want a memory hit at cost 6", l)
	}
	if l := mem.Get("absent"); l.Source != Miss || l.DiskProbe != 0 {
		t.Errorf("memory only: Get(absent) = %+v, want a miss with no disk probe", l)
	}
}

func TestTiersDiskHitPromotedWithCost(t *testing.T) {
	body := []byte(`{"v":2}`)
	store := openStore(t)
	store.Put("k", body, 777)
	syncStore(t, store)
	cache := New(1 << 20)
	tiers := Tiers{Memory: cache, Disk: store}

	if l := tiers.Get("k"); l.Source != Disk || l.CostNs != 777 {
		t.Fatalf("first Get = %+v, want a disk hit at cost 777", l)
	}
	if b, c, ok := cache.GetCost("k"); !ok || !bytes.Equal(b, body) || c != 777 {
		t.Errorf("promoted entry %q cost %d ok=%v, want cost 777", b, c, ok)
	}
	hits := store.Stats().Hits
	if l := tiers.Get("k"); l.Source != Memory || l.CostNs != 777 {
		t.Errorf("second Get = %+v, want a memory hit at cost 777", l)
	}
	if store.Stats().Hits != hits {
		t.Error("memory hit probed the disk tier")
	}
}

func TestTiersFillHitSkipsRun(t *testing.T) {
	body := []byte(`{"v":3}`)
	cache, store := New(1<<20), openStore(t)
	tiers := Tiers{Memory: cache, Disk: store}
	var runs int
	l, err := tiers.Resolve(context.Background(), "k", func(context.Context) ([]byte, uint64, bool) {
		return body, 42, true
	}, fixed([]byte(`{"wrong":true}`), &runs))
	if err != nil || l.Source != Filled || !bytes.Equal(l.Body, body) || l.CostNs != 42 {
		t.Fatalf("Resolve = %+v err=%v, want the fill's bytes at cost 42", l, err)
	}
	if runs != 0 {
		t.Errorf("run called %d times after a fill hit", runs)
	}
	syncStore(t, store)
	if _, c, ok := cache.GetCost("k"); !ok || c != 42 {
		t.Errorf("memory tier: cost %d ok=%v, want 42", c, ok)
	}
	if _, c, ok := store.Get("k"); !ok || c != 42 {
		t.Errorf("disk tier: cost %d ok=%v, want 42", c, ok)
	}
}

func TestTiersRunFailureStoresNothing(t *testing.T) {
	cache, store := New(1<<20), openStore(t)
	tiers := Tiers{Memory: cache, Disk: store}
	boom := errors.New("boom")
	l, err := tiers.Resolve(context.Background(), "k", func(context.Context) ([]byte, uint64, bool) {
		return nil, 0, false
	}, func(context.Context) ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) || l.Source != Miss {
		t.Fatalf("Resolve = %+v err=%v, want a miss with the run's error", l, err)
	}
	syncStore(t, store)
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("memory tier holds %d entries after a failed run", st.Entries)
	}
	if st := store.Stats(); st.Puts != 0 || store.Contains("k") {
		t.Errorf("disk tier written after a failed run: %+v", st)
	}

	// With no run step a double miss is a Miss, not an error.
	if l, err := tiers.Resolve(context.Background(), "k", nil, nil); err != nil || l.Source != Miss {
		t.Errorf("Resolve without run = %+v err=%v, want a plain miss", l, err)
	}
}

func TestTiersZeroFillCostBecomesWallTime(t *testing.T) {
	const pause = 2 * time.Millisecond
	cache := New(1 << 20)
	l, err := Tiers{Memory: cache}.Resolve(context.Background(), "k", func(context.Context) ([]byte, uint64, bool) {
		time.Sleep(pause)
		return []byte(`{"v":4}`), 0, true
	}, nil)
	if err != nil || l.Source != Filled {
		t.Fatalf("Resolve = %+v err=%v, want a fill", l, err)
	}
	if l.CostNs < uint64(pause) || l.MissPath < pause {
		t.Errorf("cost %dns, miss path %v: want at least the fill's %v", l.CostNs, l.MissPath, pause)
	}
	if _, c, _ := cache.GetCost("k"); c != l.CostNs {
		t.Errorf("filed cost %d, reported %d", c, l.CostNs)
	}
}

// TestTiersRunCostExcludesFill: bytes run after a missed fill are filed
// under the run's own time, while MissPath covers both steps.
func TestTiersRunCostExcludesFill(t *testing.T) {
	const pause = 50 * time.Millisecond
	var runs int
	l, err := Tiers{Memory: New(1 << 20)}.Resolve(context.Background(), "k", func(context.Context) ([]byte, uint64, bool) {
		time.Sleep(pause)
		return nil, 0, false
	}, fixed([]byte(`{"v":6}`), &runs))
	if err != nil || l.Source != Executed || runs != 1 {
		t.Fatalf("Resolve = %+v err=%v runs=%d, want an execution", l, err, runs)
	}
	if l.CostNs >= uint64(pause) || l.MissPath < pause {
		t.Errorf("cost %dns, miss path %v: want a cost under the fill's %v and a miss path over it", l.CostNs, l.MissPath, pause)
	}
}

// TestTiersConcurrentResolve runs many Resolves of one key at once; run
// under -race it checks the chain shares its tiers safely. Every caller
// gets the same bytes and the key is filed once.
func TestTiersConcurrentResolve(t *testing.T) {
	body := []byte(`{"v":5}`)
	cache, store := New(1<<20), openStore(t)
	tiers := Tiers{Memory: cache, Disk: store}
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := tiers.Resolve(context.Background(), "k", nil, func(context.Context) ([]byte, error) {
				return body, nil
			})
			if err != nil || !bytes.Equal(l.Body, body) {
				t.Errorf("Resolve = %+v err=%v", l, err)
			}
		}()
	}
	wg.Wait()
	syncStore(t, store)
	if st := cache.Stats(); st.Entries != 1 {
		t.Errorf("memory tier holds %d entries, want 1", st.Entries)
	}
	if st := store.Stats(); st.Entries != 1 {
		t.Errorf("disk tier holds %d entries, want 1", st.Entries)
	}
}

// TestTiersProduceProbesNothing: Produce is only the miss step. Given a
// caller's miss it fills or runs without probing the tiers again — the
// store counts the one probe of the caller's Get — keeps that Get's probe
// timings, and files the produced bytes in both tiers.
func TestTiersProduceProbesNothing(t *testing.T) {
	cache, store := New(1<<20), openStore(t)
	tiers := Tiers{Memory: cache, Disk: store}
	miss := tiers.Get("k")
	if miss.Source != Miss {
		t.Fatalf("Get = %+v, want a miss", miss)
	}
	body := []byte(`{"v":3}`)
	l, err := tiers.Produce(context.Background(), "k", miss, func(context.Context) ([]byte, uint64, bool) {
		return body, 9, true
	}, nil)
	if err != nil || l.Source != Filled || !bytes.Equal(l.Body, body) || l.CostNs != 9 {
		t.Fatalf("Produce = %+v err=%v, want the fill's bytes at cost 9", l, err)
	}
	if l.DiskProbe != miss.DiskProbe || l.MemoryProbe != miss.MemoryProbe {
		t.Errorf("Produce probes %v/%v, want the Get's %v/%v", l.MemoryProbe, l.DiskProbe, miss.MemoryProbe, miss.DiskProbe)
	}
	if got := store.Stats().Misses; got != 1 {
		t.Errorf("store misses = %d, want only the Get's probe", got)
	}
	syncStore(t, store)
	if b, cost, ok := store.Get("k"); !ok || !bytes.Equal(b, body) || cost != 9 {
		t.Errorf("store holds %q at %d (ok=%v), want the filled bytes at cost 9", b, cost, ok)
	}
	if b, cost, ok := cache.GetCost("k"); !ok || !bytes.Equal(b, body) || cost != 9 {
		t.Errorf("memory holds %q at %d (ok=%v), want the filled bytes at cost 9", b, cost, ok)
	}
}
