package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/experiments"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"cold-sim", "warm-hit", "disk-restart", "fleet"}

// Policy lists are explicit and omit Dyn-Aff-Delay: its sched deadlock
// (README.md, known issues) fails about one fast compare seed in eight,
// and no benchmark input may fail.
var (
	comparePolicies = []string{"Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-NoPri"}
	futurePolicies  = []string{"Dynamic", "Dyn-Aff"}
	futureProducts  = []float64{1, 16, 64, 256, 1024}
)

// Sizes per second of --seconds. The closed-loop workloads send a fixed
// list sized to take about that long on a 2-CPU host, so every count they
// cause repeats exactly for a seed; the open-loop ones send on a Poisson
// schedule at a fixed rate for the whole window.
//
// Each open-loop rate is a fixed fraction of the workload's saturation
// rate as -saturate measured it on a 2-CPU host: the highest offered rate
// whose p99 stays within saturationLimit with no failed request (README.md
// lists the ladders).
const (
	coldSimPerSec = 5.0  // cold-sim campaigns
	fleetPerSec   = 70.0 // fleet campaigns

	warmHitSaturation = 3553.0 // requests per second
	diskSaturation    = 2274.0
	// Both run at a tenth of saturation, which leaves room for the host to
	// lose CPU to its neighbours. With two bursty busy loops competing for
	// the two CPUs, disk-restart's p50 spread 10% over six seeds at a
	// tenth and 22% at a quarter, because on a slower host more requests
	// queue behind fresh campaigns.
	loadFraction = 0.10
	warmHitRate  = loadFraction * warmHitSaturation
	diskRate     = loadFraction * diskSaturation
)

// request is one POST /v1/campaigns submission. Kind and Params are its
// wire body; the rest is load-generator bookkeeping.
type request struct {
	Kind   string                     `json:"kind"`
	Params experiments.CampaignParams `json:"params"`

	at    time.Duration // open loop: send time from the window start
	class string        // which path the request is meant to take
	cells int           // cells in the campaign's plan
	body  []byte        // the JSON body sent
}

// inputs is everything one run sends, generated from the seed alone.
type inputs struct {
	workload string
	seed     uint64
	openLoop bool
	rate     float64       // open loop: offered requests per second
	window   time.Duration // open loop: length of the schedule
	setup    []request     // sent during every set-up, before timing
	timed    []request     // the timed window, in send order
}

// sizing holds what a run derives from --seconds; the smoke test shrinks
// the catalogue and the number of set-ups, and -saturate sets the rate.
type sizing struct {
	seconds        float64
	catalogueSeeds int     // warm-hit: seeds of sim compare + futuresim
	table1Seeds    int     // warm-hit: seeds of table1
	setups         int     // set-ups per run, setup_s is their median; disk-restart sets up once and restarts
	rate           float64 // open loop: requests per second, 0 for the workload's own
}

func defaultSizing(seconds float64) sizing {
	return sizing{seconds: seconds, catalogueSeeds: 4, table1Seeds: 2, setups: 3}
}

// rateOr returns the sizing's rate, or def when it sets none.
func (sz sizing) rateOr(def float64) float64 {
	if sz.rate > 0 {
		return sz.rate
	}
	return def
}

// generate builds a workload's inputs. The same (workload, seed, sizing)
// always yields the same inputs, and so the same fingerprint.
func generate(workload string, seed uint64, sz sizing) (*inputs, error) {
	g := &gen{
		rng:   rand.New(rand.NewSource(int64(seed))),
		used:  map[uint64]bool{},
		seen:  map[string]bool{},
		cells: map[string]int{},
	}
	in := &inputs{workload: workload, seed: seed}
	switch workload {
	case "cold-sim":
		g.coldSim(in, sz)
	case "warm-hit":
		g.warmHit(in, sz)
	case "disk-restart":
		g.diskRestart(in, sz)
	case "fleet":
		g.fleet(in, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	for _, reqs := range [][]request{in.setup, in.timed} {
		for i := range reqs {
			if err := g.finish(&reqs[i]); err != nil {
				return nil, err
			}
		}
	}
	return in, nil
}

type gen struct {
	rng   *rand.Rand
	used  map[uint64]bool // campaign seeds handed out
	seen  map[string]bool // bodies of campaigns already generated
	cells map[string]int  // plan size by body
	fresh int             // fresh analytic campaigns generated
}

// freshSeed returns a campaign seed no other campaign of the run uses.
func (g *gen) freshSeed() uint64 {
	for {
		s := uint64(g.rng.Int63n(1<<40)) + 1
		if !g.used[s] {
			g.used[s] = true
			return s
		}
	}
}

// claim marks r as generated, reporting whether it was new.
func (g *gen) claim(r request) bool {
	b, _ := json.Marshal(r)
	if g.seen[string(b)] {
		return false
	}
	g.seen[string(b)] = true
	return true
}

func (g *gen) finish(r *request) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	r.body = b
	n, ok := g.cells[string(b)]
	if !ok {
		plan, err := experiments.Cells(r.Kind, r.Params)
		if err != nil {
			return fmt.Errorf("plan %s: %w", b, err)
		}
		n = len(plan.Cells)
		g.cells[string(b)] = n
	}
	r.cells = n
	return nil
}

func compareReq(seed uint64, mix int, policies []string, engine string) request {
	return request{Kind: "compare", Params: experiments.CampaignParams{
		Fast: true, Seed: seed, Mix: mix, Policies: policies, Engine: engine}}
}

func futureSimReq(seed uint64, policies []string, products []float64, engine string) request {
	return request{Kind: "futuresim", Params: experiments.CampaignParams{
		Fast: true, Seed: seed, Policies: policies, Products: products, Engine: engine}}
}

func table1Req(seed uint64) request {
	return request{Kind: "table1", Params: experiments.CampaignParams{Fast: true, Seed: seed}}
}

// freshAnalytic is a never-seen analytic campaign, alternately compare
// and futuresim. The compare covers all six mixes, or with background a
// single one, cycling through them: most of a fresh campaign's cost is
// building its seed's workload graphs, one per application its mixes use.
// A background campaign, sent among the open loops' cache reads, also asks
// for one cell worker, as a user adding work beside interactive reads
// would: at the default of one per CPU, its cells build the same new graph
// on both CPUs at once, and reads wait for a CPU meanwhile.
func (g *gen) freshAnalytic(class string, background bool) request {
	g.fresh++
	r := futureSimReq(g.freshSeed(), futurePolicies, futureProducts, experiments.EngineAnalytic)
	if g.fresh%2 == 1 {
		mix := 0
		if background {
			mix = 1 + (g.fresh/2)%6
		}
		r = compareReq(r.Params.Seed, mix, comparePolicies, experiments.EngineAnalytic)
	}
	if background {
		r.Params.Workers = 1
	}
	r.class = class
	return r
}

// subset returns a random non-empty subset of xs in random order.
func subset[T any](rng *rand.Rand, xs []T) []T {
	perm := rng.Perm(len(xs))[:1+rng.Intn(len(xs))]
	out := make([]T, len(perm))
	for i, p := range perm {
		out[i] = xs[p]
	}
	return out
}

// reshape returns a never-seen campaign over part of base's grid: a
// permuted or partial policy list, one of its mixes, or a subset of
// products. Its body misses the body cache, but each of its cells is one
// of base's.
func (g *gen) reshape(base request) request {
	for tries := 0; ; tries++ {
		r := base
		switch base.Kind {
		case "compare":
			r.Params.Policies = subset(g.rng, comparePolicies)
			if base.Params.Mix == 0 && g.rng.Intn(2) == 0 {
				r.Params.Mix = 1 + g.rng.Intn(6)
			}
		case "futuresim":
			r.Params.Policies = subset(g.rng, futurePolicies)
			r.Params.Products = subset(g.rng, futureProducts)
		}
		r.class = "reshaped"
		// A tiny catalogue can run out of unseen shapes; a repeated shape
		// is then a body hit, which is still a valid request.
		if g.claim(r) || tries > 1000 {
			return r
		}
	}
}

// Class patterns, one letter per request: the same positions in every
// block, so every seed's window holds each class in the same share, in
// the same order, with the slow classes spread out. Only which campaign
// fills a slot, and (open loop) when it arrives, is random.
//
// The shares are the workload definitions' assumptions, not measurements
// of real traffic; README.md says what each share is meant to exercise.
const (
	// cold-sim, per ten: five compare over one mix (cycling through all
	// six), three futuresim, two table1 (c, f, t). Shorter campaigns
	// follow the last table1, so at the end of the list neither client
	// idles long while the other finishes.
	coldSimPattern = "ctcfcfctcf"
	// warm-hit: 85% catalogue repeats, 10% reshaped, 5% fresh (r, s, f).
	warmHitPattern = "frrrrrrsrrrrrrsrrrrr"
	// disk-restart: 60% first touch of a stored campaign, 20% reshaped,
	// 10% repeats, 10% fresh (t, s, r, f).
	diskPattern = "fttsttrtstfttsttrtst"
)

// poisson fills in.timed with arrivals at rate per second over seconds,
// asking next for a request of each successive class of pattern.
func (g *gen) poisson(in *inputs, rate, seconds float64, pattern string, next func(class byte) request) {
	in.openLoop, in.rate, in.window = true, rate, time.Duration(seconds*float64(time.Second))
	for t := g.rng.ExpFloat64() / rate; t < seconds; t += g.rng.ExpFloat64() / rate {
		r := next(pattern[len(in.timed)%len(pattern)])
		r.at = time.Duration(t * float64(time.Second))
		in.timed = append(in.timed, r)
	}
}

// coldSim: never-seen sim campaigns in coldSimPattern's order, closed
// loop. Each asks for one cell worker, so each of the two campaigns in
// flight runs on its own CPU and its latency is its own engine time, not
// a function of which campaign it overlapped. Each set-up ends with two
// warm-up campaigns so lazily built process state is ready before timing.
func (g *gen) coldSim(in *inputs, sz sizing) {
	n := max(2, int(math.Round(sz.seconds*coldSimPerSec)))
	compares := 0
	for i := 0; i < n; i++ {
		var r request
		switch coldSimPattern[i%len(coldSimPattern)] {
		case 'c':
			r = compareReq(g.freshSeed(), 1+compares%6, comparePolicies, "")
			compares++
		case 'f':
			r = futureSimReq(g.freshSeed(), futurePolicies, futureProducts, "")
		default:
			r = table1Req(g.freshSeed())
		}
		r.Params.Workers = 1
		r.class = "cold"
		in.timed = append(in.timed, r)
	}
	in.setup = []request{
		compareReq(g.freshSeed(), 3, comparePolicies, ""),
		futureSimReq(g.freshSeed(), futurePolicies, futureProducts, ""),
	}
	for i := range in.setup {
		in.setup[i].class = "warm-up"
	}
}

// warmHit: set-up fills a catalogue of sim campaigns; the open-loop
// window then asks for catalogue repeats (Zipf by catalogue rank),
// reshaped catalogue campaigns and fresh analytic campaigns
// (warmHitPattern). The catalogue interleaves compare and futuresim by
// rank, so popularity has the same shape for every seed.
func (g *gen) warmHit(in *inputs, sz sizing) {
	var cat, reshapeable []request
	for k := 0; k < sz.catalogueSeeds; k++ {
		s := g.freshSeed()
		cat = append(cat, compareReq(s, 0, comparePolicies, ""), futureSimReq(s, futurePolicies, futureProducts, ""))
	}
	reshapeable = append(reshapeable, cat...)
	for k := 0; k < sz.table1Seeds; k++ {
		cat = append(cat, table1Req(g.freshSeed()))
	}
	for i := range cat {
		cat[i].class = "catalogue"
		g.claim(cat[i])
	}
	in.setup = cat
	// Zipf exponent: math/rand's Zipf needs s > 1, and 1.1 is the flattest
	// round value it takes, nearest to the 0.64-0.83 that Breslau et al.
	// ("Web Caching and Zipf-like Distributions", INFOCOM 1999) measured
	// in web proxy request streams.
	zipf := rand.NewZipf(g.rng, 1.1, 1, uint64(len(cat)-1))
	g.poisson(in, sz.rateOr(warmHitRate), sz.seconds, warmHitPattern, func(class byte) request {
		switch class {
		case 'r':
			r := cat[zipf.Uint64()]
			r.class = "repeat"
			return r
		case 's':
			return g.reshape(reshapeable[g.rng.Intn(len(reshapeable))])
		}
		return g.freshAnalytic("fresh", true)
	})
}

// storedVariants is how many reshaped variants disk-restart stores of
// each base campaign besides the base itself.
const storedVariants = 30

// diskRestart: set-up stores analytic campaigns through a server with a
// disk store, then restarts it. Every first touch needs a stored campaign
// of its own, so the store holds base campaigns (alternately compare over
// all mixes and futuresim), each followed by storedVariants reshaped
// variants of it: the set-up computes each base's cells once, and storing
// a variant costs a merge. The open-loop window (diskPattern) asks for
// stored campaigns not yet asked for (disk body hits), further variants
// of the bases (cells read from disk and promoted), repeats of earlier
// window requests (memory hits) and fresh analytic campaigns (write-behind
// Puts).
func (g *gen) diskRestart(in *inputs, sz sizing) {
	rate := sz.rateOr(diskRate)
	// Enough stored campaigns for every first touch, with a margin for the
	// Poisson schedule running above its mean.
	n := int(math.Ceil(rate*sz.seconds*0.60*1.1)) + 8
	var bases, stored []request
	for len(stored) < n {
		b := futureSimReq(g.freshSeed(), futurePolicies, futureProducts, experiments.EngineAnalytic)
		if len(bases)%2 == 0 {
			b = compareReq(b.Params.Seed, 0, comparePolicies, experiments.EngineAnalytic)
		}
		b.class = "stored"
		g.claim(b)
		bases = append(bases, b)
		stored = append(stored, b)
		for k := 0; k < storedVariants && len(stored) < n; k++ {
			v := g.reshape(b)
			v.class = "stored"
			stored = append(stored, v)
		}
	}
	in.setup = stored
	order := g.rng.Perm(n)
	var asked []request
	g.poisson(in, rate, sz.seconds, diskPattern, func(class byte) request {
		switch {
		case class == 's':
			return g.reshape(bases[g.rng.Intn(len(bases))])
		case class == 'f':
			return g.freshAnalytic("fresh", true)
		case (class == 't' || len(asked) == 0) && len(asked) < n:
			r := stored[order[len(asked)]]
			r.class = "first-touch"
			asked = append(asked, r)
			return r
		}
		r := asked[g.rng.Intn(len(asked))]
		r.class = "repeat"
		return r
	})
}

// fleet: never-seen analytic campaigns (alternately compare over all
// mixes and futuresim) sent closed loop to a coordinator with two
// workers. Each set-up ends with twenty warm-up campaigns, which open the
// fleet's connections and settle its placement scores.
func (g *gen) fleet(in *inputs, sz sizing) {
	n := max(2, int(math.Round(sz.seconds*fleetPerSec)))
	for i := 0; i < n; i++ {
		in.timed = append(in.timed, g.freshAnalytic("fleet", false))
	}
	for i := 0; i < 20; i++ {
		in.setup = append(in.setup, g.freshAnalytic("warm-up", false))
	}
}

// fingerprint is a SHA-256 over everything the run sends and when.
func (in *inputs) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %v %g %d\n", in.workload, in.seed, in.openLoop, in.rate, in.window)
	for _, r := range in.setup {
		fmt.Fprintf(h, "setup %s\n", r.body)
	}
	for _, r := range in.timed {
		fmt.Fprintf(h, "%s %d %s\n", r.class, r.at, r.body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// half cuts the timed window to its first half: a traced run sends it
// twice, untraced and traced, in the time one untraced run takes.
func (in *inputs) half() *inputs {
	out := *in
	if !in.openLoop {
		out.timed = in.timed[:max(1, len(in.timed)/2)]
		return &out
	}
	out.window = in.window / 2
	out.timed = nil
	for _, r := range in.timed {
		if r.at < out.window {
			out.timed = append(out.timed, r)
		}
	}
	return &out
}
