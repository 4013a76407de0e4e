package analytic

import (
	"fmt"
	"math"

	"repro/internal/alloc"
	"repro/internal/footprint"
	"repro/internal/sched"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// fixedPointIterations is the number of fluid-pass refinements. Each pass
// spreads the previous pass's estimated miss and switch overhead over the
// job's compute (the inflation factor phi), then re-derives the overheads
// from the new schedule. Three passes are enough for phi to settle to well
// under the calibration tolerance.
const fixedPointIterations = 3

// Affinity fractions by policy class, standing in for the simulator's
// measured %affinity (paper Table 3): Equipartition's tasks essentially
// never move; the Dyn-Aff family reacquires its processors most of the
// time; affinity-blind policies land at chance level, 1/allocation.
const (
	affEquipartition = 0.85
	affDynAff        = 0.70
)

// affContinuationFrac is the fraction of an affinity-honoring policy's
// processor reacquisitions that the simulator classifies as continuations
// rather than reallocations: rules A.1/A.2 hand a freed processor straight
// back to the task that held it, and a task resuming on its own processor
// with nothing run in between pays no reallocation at all. Calibrated
// against the Dyn-Aff/Dynamic reallocation-count ratio.
const affContinuationFrac = 0.5

// maxFluidEvents bounds one fluid pass as a livelock backstop; real
// workloads produce a few thousand level-boundary events at most.
const maxFluidEvents = 10_000_000

// policyClass selects the allocation behaviour the fluid model imitates.
type policyClass int

const (
	// classDynamic recomputes demand-capped equal shares at every level
	// boundary (the Dynamic family's instantaneous reallocation).
	classDynamic policyClass = iota
	// classEqui recomputes allocation numbers only on arrival and
	// completion, holding idle processors in between (Equipartition).
	classEqui
	// classTimeshare spreads all processors equally regardless of demand
	// and accrues reallocations at the quantum rate (TimeShare).
	classTimeshare
)

func classify(p alloc.Policy) policyClass {
	if p.Quantum() > 0 {
		return classTimeshare
	}
	if p.Name() == "Equipartition" {
		return classEqui
	}
	return classDynamic
}

// jobSim is one job's fluid state and accumulators. All times are in
// seconds: baseline compute for rem/workSec, wall time for everything else.
type jobSim struct {
	name     string
	levels   []workload.Level
	maxPar   int
	nthreads int
	workSec  float64 // total baseline compute
	workDur  simtime.Duration
	pattern  footprint.Profile

	phi float64 // compute inflation carrying miss+switch overhead

	// Fluid pass state.
	li           int
	width        int
	rem          float64 // remaining inflated baseline compute in level
	alloc        int
	lastUsed     float64
	done         bool
	needsInflate bool
	pending      []pendingHold
	pendHead     int

	// Accumulators (wall seconds unless noted).
	t        float64 // completion time
	allocInt float64 // ∫ alloc dt (processor-seconds held)
	usedInt  float64 // ∫ min(alloc, width) dt (processor-seconds used)
	realloc  float64
	heldIdle float64 // processor-seconds held idle under the yield delay

	// Overhead estimates from the latest refinement.
	aff       float64
	missLines float64
	missSec   float64
	switchSec float64
	wasteSec  float64

	scratch int // waterfill's provisional allocation
}

// pendingHold is a tranche of processors a yield-delay policy holds idle
// after the job's usage dropped: reacquired within the delay they cost no
// reallocation, past it they are released for real.
type pendingHold struct {
	t float64 // when usage dropped
	d float64 // processors held
}

// Run estimates the outcome of the configured run. It accepts the same
// Config as sched.Run and returns a Result of the same shape (populated
// JobMetrics, Makespan, Policy), so campaign summarization code works on
// either engine's output unchanged. Simulator-internal counters (Events,
// BusTransactions, Stats, Profile) are left zero.
func Run(cfg sched.Config) (sched.Result, error) {
	if err := cfg.Validate(); err != nil {
		return sched.Result{}, err
	}
	for _, at := range cfg.Arrivals {
		if at != 0 {
			return sched.Result{}, fmt.Errorf("analytic: staggered arrivals are not supported")
		}
	}
	userSwitch := cfg.UserSwitch
	if userSwitch == 0 {
		userSwitch = 50 * simtime.Microsecond
	}
	mc := cfg.Machine
	class := classify(cfg.Policy)
	quantumSec := cfg.Policy.Quantum().SecondsF()
	yieldSec := cfg.Policy.YieldDelay().SecondsF()

	jobs := make([]*jobSim, len(cfg.Apps))
	for i := range cfg.Apps {
		app := &cfg.Apps[i]
		jobs[i] = &jobSim{
			name:     app.Name,
			levels:   app.Graph.Levels(),
			maxPar:   app.MaxParallelism(),
			nthreads: app.Graph.NumThreads(),
			workSec:  app.Graph.TotalWork().SecondsF(),
			workDur:  app.Graph.TotalWork(),
			pattern:  app.Pattern,
			phi:      1,
		}
	}

	capLines := float64(mc.Cache.Lines())
	lineFillSec := mc.LineFill.SecondsF()
	switchPathSec := mc.SwitchPath.SecondsF()
	userSwitchSec := mc.Compute(userSwitch).SecondsF()

	contFrac := 0.0
	if class == classDynamic && cfg.Policy.PrefersAffinity() {
		contFrac = affContinuationFrac
	}

	for iter := 0; iter < fixedPointIterations; iter++ {
		if err := fluidPass(jobs, mc.Processors, class, quantumSec, mc.Speed, yieldSec, contFrac); err != nil {
			return sched.Result{}, err
		}
		for _, j := range jobs {
			// %affinity for the policy class; affinity-blind policies sit at
			// chance level, one over the processors the job's tasks rotate
			// across.
			avgAlloc := j.allocInt / j.t
			switch {
			case class == classEqui:
				j.aff = affEquipartition
			case cfg.Policy.PrefersAffinity():
				j.aff = affDynAff
			default:
				j.aff = 1 / math.Max(1, avgAlloc)
			}

			// Cache-reload penalty: the job's compute splits into one
			// footprint-rebuild segment per reallocation dispatch. Between a
			// task's consecutive dispatches, the other tenants of the
			// processor touch roughly as many lines as the task does, so the
			// surviving fraction shrinks as the segment footprint approaches
			// capacity; r0 is what an affinity-honoring dispatch finds still
			// resident.
			segments := math.Max(1, math.Round(j.realloc))
			segCompute := simtime.Seconds(j.workSec / segments)
			resident := math.Min(j.pattern.TouchRate(segCompute), capLines)
			surv := 1 - resident/capLines
			if surv < 0 {
				surv = 0
			}
			r0 := j.aff * resident * surv
			j.missLines = segments * footprint.Segment(j.pattern, 0, segCompute, r0)
			j.missSec = j.missLines * lineFillSec

			// Switch time: the kernel reallocation path per reallocation
			// dispatch, plus the user-level thread dispatch for every other
			// thread start.
			userDispatches := float64(j.nthreads) - j.realloc
			if userDispatches < 0 {
				userDispatches = 0
			}
			j.switchSec = j.realloc*switchPathSec + userDispatches*userSwitchSec

			base := j.workSec / mc.Speed
			j.phi = (base + j.missSec + j.switchSec) / base
		}
	}

	res := sched.Result{
		Policy: cfg.Policy.Name(),
		Jobs:   make([]sched.JobMetrics, 0, len(jobs)),
	}
	for i, j := range jobs {
		rt := simtime.Seconds(j.t)
		avgAlloc := j.allocInt / j.t

		// Waste from the decomposition identity: held processor-seconds not
		// spent computing, resolving misses, or switching. The Dynamic
		// family releases idle processors (after the yield delay), so only
		// the used integral plus the yield-delay hold time counts for it;
		// Equipartition and TimeShare hold their full allocation throughout.
		held := j.allocInt
		if class == classDynamic {
			held = j.usedInt + j.heldIdle
		}
		busy := j.workSec/mc.Speed + j.missSec + j.switchSec
		j.wasteSec = held - busy
		if j.wasteSec < 0 {
			j.wasteSec = 0
		}

		reallocs := int(math.Round(j.realloc))
		res.Jobs = append(res.Jobs, sched.JobMetrics{
			Job:           i,
			App:           j.name,
			Arrival:       0,
			Completion:    simtime.Time(0).Add(rt),
			ResponseTime:  rt,
			Work:          j.workDur,
			MissTime:      simtime.Seconds(j.missSec),
			MissLines:     j.missLines,
			SwitchTime:    simtime.Seconds(j.switchSec),
			Waste:         simtime.Seconds(j.wasteSec),
			Reallocations: reallocs,
			AffinityHits:  int(math.Round(j.aff * float64(reallocs))),
			AvgAlloc:      avgAlloc,
		})
		if c := simtime.Time(0).Add(rt); c > res.Makespan {
			res.Makespan = c
		}
	}
	return res, nil
}

// fluidPass jointly executes all jobs through their level profiles,
// recomputing integer allocations at level-boundary events and integrating
// the allocation/usage accumulators. Each job's compute rate is
// min(alloc, width) × Speed / phi: phi spreads the estimated per-job
// overhead over the schedule so contention between jobs reflects it.
func fluidPass(jobs []*jobSim, procs int, class policyClass, quantumSec, speed, yieldSec, contFrac float64) error {
	for _, j := range jobs {
		j.li = -1
		j.width = 0
		j.rem = 0
		j.alloc = 0
		j.lastUsed = 0
		j.done = false
		j.needsInflate = false
		j.pending = j.pending[:0]
		j.pendHead = 0
		j.t = 0
		j.allocInt = 0
		j.usedInt = 0
		j.realloc = 0
		j.heldIdle = 0
		j.enterLevel()
	}
	remaining := len(jobs)
	t := 0.0
	recompute(jobs, procs, class, t, yieldSec, contFrac)
	applyInflation(jobs)

	// The fractional fallback: with more active jobs than processors the
	// integer water-fill leaves some jobs at zero; they progress at the
	// time-shared fractional rate instead of deadlocking the pass.
	fallback := func(active int) float64 {
		if active > procs {
			return float64(procs) / float64(active)
		}
		return 0
	}

	active := remaining
	for events := 0; remaining > 0; events++ {
		if events > maxFluidEvents {
			return fmt.Errorf("analytic: fluid pass exceeded %d events", maxFluidEvents)
		}
		// Shortest time to the next level boundary.
		frac := fallback(active)
		dt := math.Inf(1)
		for _, j := range jobs {
			if j.done {
				continue
			}
			rate := j.effUsed(frac) * speed / j.phi
			if rate <= 0 {
				return fmt.Errorf("analytic: job %s stalled with zero rate", j.name)
			}
			if d := j.rem / rate; d < dt {
				dt = d
			}
		}
		// Advance every job by dt.
		for _, j := range jobs {
			if j.done {
				continue
			}
			used := j.effUsed(frac)
			j.rem -= used * speed / j.phi * dt
			j.allocInt += float64(j.alloc) * dt
			j.usedInt += used * dt
			if class == classTimeshare && quantumSec > 0 {
				j.realloc += used * dt / quantumSec
			}
		}
		t += dt
		// Level boundaries and completions.
		completed := false
		for _, j := range jobs {
			if j.done || j.rem > 1e-12 {
				continue
			}
			j.enterLevel()
			if j.done {
				j.t = t
				remaining--
				active--
				completed = true
			}
		}
		if remaining == 0 {
			break
		}
		// Equipartition reconsiders allocation only on arrival/completion;
		// the dynamic classes at every event.
		if class != classEqui || completed {
			recompute(jobs, procs, class, t, yieldSec, contFrac)
		}
		applyInflation(jobs)
	}
	// Processors still held under the yield delay at completion expire.
	for _, j := range jobs {
		j.expireHolds(math.Inf(1), yieldSec)
	}
	return nil
}

// effUsed is the processors the job effectively drives: its integer
// allocation capped by its width, or the fractional time-shared rate when
// over-subscription left it with none.
func (j *jobSim) effUsed(frac float64) float64 {
	u := j.alloc
	if j.width < u {
		u = j.width
	}
	if u == 0 && frac > 0 {
		return math.Min(frac, float64(j.width))
	}
	return float64(u)
}

// enterLevel advances the job to its next level, marking it done past the
// last one. The new level's work is inflated for intra-level imbalance once
// the allocation it will run under is known (applyInflation).
func (j *jobSim) enterLevel() {
	j.li++
	if j.li >= len(j.levels) {
		j.done = true
		j.width = 0
		return
	}
	lv := j.levels[j.li]
	j.width = lv.Width
	j.rem = lv.Work.SecondsF()
	j.needsInflate = true
}

// applyInflation corrects each freshly entered level for thread-count
// imbalance: w threads on a processors execute in ceil(w/a) waves, the last
// of which runs under-populated, so the level takes ceil(w/a)·min(a,w)
// processor-rounds rather than the fluid w.
func applyInflation(jobs []*jobSim) {
	for _, j := range jobs {
		if !j.needsInflate || j.done {
			continue
		}
		j.needsInflate = false
		a := j.alloc
		if a <= 0 || j.width <= a {
			continue
		}
		waves := math.Ceil(float64(j.width) / float64(a))
		inflate := waves * float64(a) / float64(j.width)
		if inflate > 1 {
			j.rem *= inflate
		}
	}
}

// pushHold records processors whose usage just dropped under a yield-delay
// policy: they stay with the job for yieldSec before releasing for real.
func (j *jobSim) pushHold(t, d float64) {
	j.pending = append(j.pending, pendingHold{t: t, d: d})
}

// consumeHolds reacquires up to d held processors whose hold is still
// within the yield delay at time t, accruing their idle-held span as waste,
// and returns how many were reacquired (these cost no reallocation).
func (j *jobSim) consumeHolds(t, yieldSec, d float64) float64 {
	taken := 0.0
	for d > 1e-12 && j.pendHead < len(j.pending) {
		h := &j.pending[j.pendHead]
		if t-h.t > yieldSec {
			// Expired tranche: released for real after a full delay.
			j.heldIdle += h.d * yieldSec
			j.pendHead++
			continue
		}
		m := math.Min(d, h.d)
		j.heldIdle += m * (t - h.t)
		h.d -= m
		d -= m
		taken += m
		if h.d <= 1e-12 {
			j.pendHead++
		}
	}
	return taken
}

// expireHolds releases tranches held longer than the yield delay.
func (j *jobSim) expireHolds(t, yieldSec float64) {
	for j.pendHead < len(j.pending) {
		h := &j.pending[j.pendHead]
		if t-h.t <= yieldSec {
			return
		}
		j.heldIdle += h.d * yieldSec
		j.pendHead++
	}
}

// recompute water-fills the processors over the active jobs round-robin —
// the same allocation-number computation Equipartition.Rebalance performs —
// with the policy class choosing each job's cap, then folds the allocation
// deltas into the reallocation counters. Under a yield-delay policy a usage
// drop parks the processors in a pending hold; rises consume still-held
// tranches for free before counting reallocations, and affinity-honoring
// policies discount the continuation fraction of what remains.
func recompute(jobs []*jobSim, procs int, class policyClass, t, yieldSec, contFrac float64) {
	remaining := procs
	for _, j := range jobs {
		j.scratch = 0
	}
	for remaining > 0 {
		progressed := false
		for _, j := range jobs {
			if j.done || remaining == 0 {
				continue
			}
			cap := j.allocCap(class, procs)
			if j.scratch >= cap {
				continue
			}
			j.scratch++
			remaining--
			progressed = true
		}
		if !progressed {
			break
		}
	}
	for _, j := range jobs {
		if j.done {
			j.scratch = 0
		}
		switch class {
		case classEqui:
			// Tasks never move otherwise; only allocation-number changes
			// dispatch onto new processors.
			if d := j.scratch - j.alloc; d > 0 {
				j.realloc += float64(d)
			}
		case classDynamic:
			// Every rise in driven processors is a reallocation dispatch,
			// less what a yield-delay hold hands back for free and what
			// affinity turns into continuations.
			used := math.Min(float64(j.scratch), float64(j.width))
			d := used - j.lastUsed
			j.lastUsed = used
			switch {
			case d < 0 && yieldSec > 0:
				j.pushHold(t, -d)
			case d > 0:
				free := 0.0
				if yieldSec > 0 {
					free = j.consumeHolds(t, yieldSec, d)
				}
				if d > free {
					j.realloc += (d - free) * (1 - contFrac)
				}
			}
			if yieldSec > 0 {
				j.expireHolds(t, yieldSec)
			}
		case classTimeshare:
			// Reallocations accrue at the quantum rate instead.
		}
		j.alloc = j.scratch
	}
}

// allocCap is the most processors the water-fill may grant the job.
func (j *jobSim) allocCap(class policyClass, procs int) int {
	switch class {
	case classEqui:
		return j.maxPar
	case classTimeshare:
		return procs
	default:
		if j.width < procs {
			return j.width
		}
		return procs
	}
}
