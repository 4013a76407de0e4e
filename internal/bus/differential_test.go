package bus

import (
	"math/rand"
	"testing"

	"repro/internal/simtime"
)

// refBus is the per-transaction bus the division-free ServiceN replaced:
// every transaction rotates the ring by dividing its start time by the
// bucket width, and recounts transactions and busy time one by one. It is
// the oracle of the differential tests below, and it counts the regimes a
// case exercised so the tests can prove their inputs reach them.
type refBus struct {
	fill    simtime.Duration
	bucketW simtime.Duration
	busy    []simtime.Duration
	cur     int64
	total   simtime.Duration

	transactions uint64
	busyAllTime  simtime.Duration

	crossings, saturated, capped int
}

func newRefBus(fill, window simtime.Duration) *refBus {
	return &refBus{fill: fill, bucketW: window / 16, busy: make([]simtime.Duration, 16)}
}

func (b *refBus) advance(now simtime.Time) {
	idx := int64(now) / int64(b.bucketW)
	for b.cur < idx {
		b.cur++
		slot := int(b.cur % int64(len(b.busy)))
		b.total -= b.busy[slot]
		b.busy[slot] = 0
	}
}

func (b *refBus) service(now simtime.Time) simtime.Duration {
	if int64(now)/int64(b.bucketW) > b.cur {
		b.crossings++
	}
	b.advance(now)
	window := b.bucketW * simtime.Duration(len(b.busy))
	u := float64(b.total) / float64(window)
	if u > 1 {
		u = 1
	}
	inflation := 1.0
	if u < 1 {
		inflation = 1 / (1 - u)
	} else {
		b.saturated++
	}
	if inflation > maxInflation {
		inflation = maxInflation
		b.capped++
	}
	d := b.fill.Scale(inflation)
	slot := int(b.cur % int64(len(b.busy)))
	b.busy[slot] += b.fill
	b.total += b.fill
	b.transactions++
	b.busyAllTime += b.fill
	return d
}

func (b *refBus) serviceN(now simtime.Time, n int) simtime.Duration {
	var total simtime.Duration
	for i := 0; i < n; i++ {
		total += b.service(now.Add(total))
	}
	return total
}

// sameState reports the first field where got and want disagree.
func sameState(t *testing.T, got *Bus, want *refBus) bool {
	t.Helper()
	for i := range want.busy {
		if got.busy[i] != want.busy[i] {
			t.Errorf("busy[%d] = %v, want %v", i, got.busy[i], want.busy[i])
			return false
		}
	}
	if got.cur != want.cur || got.total != want.total {
		t.Errorf("cur, total = %d, %v; want %d, %v", got.cur, got.total, want.cur, want.total)
		return false
	}
	if st := got.Stats(); st.Transactions != want.transactions || st.BusyTime != want.busyAllTime {
		t.Errorf("stats = %+v, want {%d %v}", st, want.transactions, want.busyAllTime)
		return false
	}
	if got.next != simtime.Time((got.cur+1)*int64(got.bucketW)) {
		t.Errorf("next %v out of step with cur %d", got.next, got.cur)
		return false
	}
	return true
}

// busOp is one ServiceN call: the clock moves gap past the end of the
// previous call (zero piles calls onto one instant, as processors
// dispatched together do), then n lines are serviced.
type busOp struct {
	gap simtime.Duration
	n   int
}

// replay drives both buses through ops and checks every return value and
// the full state after each call.
func replay(t *testing.T, fill, window simtime.Duration, ops []busOp) *refBus {
	t.Helper()
	got, want := MustNew(fill, window), newRefBus(fill, window)
	var now simtime.Time
	for k, op := range ops {
		now = now.Add(op.gap)
		d, wd := got.ServiceN(now, op.n), want.serviceN(now, op.n)
		if d != wd {
			t.Fatalf("op %d (%+v at %v): ServiceN = %v, want %v", k, op, now, d, wd)
		}
		if !sameState(t, got, want) {
			t.Fatalf("op %d (%+v at %v): state diverged", k, op, now)
		}
		if k%3 == 0 {
			now = now.Add(d)
		}
	}
	return want
}

// TestServiceNMatchesPerTransactionBus replays seeded random call
// sequences on both buses. The sequences mix calls piled on one instant
// (which drive utilization to 1 and the inflation to its cap), short gaps
// inside a bucket, gaps across bucket boundaries, and idle gaps longer
// than the whole window.
func TestServiceNMatchesPerTransactionBus(t *testing.T) {
	var crossings, saturated, capped, idle int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fill := simtime.Duration(1 + rng.Intn(1500))
		window := simtime.Duration(16+rng.Intn(64)) * fill * simtime.Duration(1+rng.Intn(8))
		ops := make([]busOp, 200)
		for i := range ops {
			switch rng.Intn(4) {
			case 0:
				ops[i].gap = 0
			case 1:
				ops[i].gap = simtime.Duration(rng.Int63n(int64(window / 16)))
			case 2:
				ops[i].gap = simtime.Duration(rng.Int63n(int64(window)))
			case 3:
				ops[i].gap = window + simtime.Duration(rng.Int63n(int64(4*window)))
				idle++
			}
			ops[i].n = rng.Intn(300)
		}
		ref := replay(t, fill, window, ops)
		crossings += ref.crossings
		saturated += ref.saturated
		capped += ref.capped
	}
	if crossings == 0 || saturated == 0 || capped == 0 || idle == 0 {
		t.Errorf("inputs missed a regime: %d crossings, %d saturated, %d capped, %d idle gaps",
			crossings, saturated, capped, idle)
	}
}

// FuzzServiceN holds ServiceN to the per-transaction bus on arbitrary call
// sequences: each op is three bytes, a gap selector and a 16-bit count.
func FuzzServiceN(f *testing.F) {
	f.Add(uint16(750), uint16(1000), []byte{0, 0, 16, 1, 200, 1, 3, 0, 0, 0, 255, 255})
	f.Add(uint16(1), uint16(16), []byte{2, 7, 0, 3, 1, 0, 0, 0, 40})
	f.Add(uint16(1500), uint16(400), []byte{0, 50, 0, 0, 50, 0, 0, 50, 0, 1, 9, 0})
	f.Fuzz(func(t *testing.T, fillNs, windowUnits uint16, data []byte) {
		fill := simtime.Duration(fillNs%2000 + 1)
		window := simtime.Duration(windowUnits) + 16
		var ops []busOp
		for len(data) >= 3 && len(ops) < 64 {
			var gap simtime.Duration
			switch sel := data[0]; sel % 4 {
			case 0: // same instant
			case 1:
				gap = simtime.Duration(sel) % (window/16 + 1)
			case 2:
				gap = simtime.Duration(sel) * window / 64
			case 3:
				gap = window * simtime.Duration(1+sel%8)
			}
			ops = append(ops, busOp{gap: gap, n: (int(data[1]) | int(data[2])<<8) % 4096})
			data = data[3:]
		}
		replay(t, fill, window, ops)
	})
}

// BenchmarkServiceN reloads a 4,096-line footprint (a whole Symmetry
// cache) per op on a bus held at a steady utilization: each reload starts
// far enough after the previous one that the window stays partly busy.
func BenchmarkServiceN(b *testing.B) {
	bus := MustNew(fill(), 10*simtime.Millisecond)
	now := simtime.Time(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := bus.ServiceN(now, 4096)
		now = now.Add(2 * d)
	}
}

// TestResetBusMatchesPerTransactionBus reuses one bus across parameter
// changes and repeats, as a scheduler runner does: each Reset either
// keeps the prefix table (same fill and bucket width) or rebuilds it in
// place, and every call must still match a fresh per-transaction bus.
func TestResetBusMatchesPerTransactionBus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := MustNew(750, 10*simtime.Millisecond)
	for _, p := range []struct{ fill, window simtime.Duration }{
		{750, 10 * simtime.Millisecond}, {133, 10 * simtime.Millisecond}, {133, 10 * simtime.Millisecond},
		{750, 10 * simtime.Millisecond}, {9, 4000}, {750, 10*simtime.Millisecond + 7},
	} {
		b.Reset(p.fill, p.window)
		ref := newRefBus(p.fill, p.window)
		var now simtime.Time
		for k := 0; k < 300; k++ {
			now = now.Add(simtime.Duration(rng.Int63n(int64(p.window / 8))))
			n := rng.Intn(600)
			if d, wd := b.ServiceN(now, n), ref.serviceN(now, n); d != wd {
				t.Fatalf("%+v op %d: ServiceN = %v, want %v", p, k, d, wd)
			}
			if !sameState(t, b, ref) {
				t.Fatalf("%+v op %d: state diverged", p, k)
			}
		}
	}
}

// TestCostTableBounded fills a bus's prefix table completely, by piling
// enough transactions on one instant to saturate its window, and checks
// that it stays under 64 KiB: at the Symmetry's fill, at the 133 ns fill
// of the largest speed*cache product, and at a 1 ns fill.
func TestCostTableBounded(t *testing.T) {
	for _, fill := range []simtime.Duration{750, 133, 1} {
		b := MustNew(fill, 10*simtime.Millisecond)
		for i := 0; i < 8; i++ {
			b.ServiceN(0, int(10*simtime.Millisecond/fill/2))
		}
		if int64(len(b.costs)) != b.satBlocks+1 {
			t.Errorf("fill %v: table has %d of its %d sums", fill, len(b.costs), b.satBlocks+1)
		}
		if size := cap(b.costs) * 8; size >= 64<<10 {
			t.Errorf("fill %v: table takes %d bytes, want < 64 KiB", fill, size)
		}
	}
}
