// Package sched is the discrete-event simulator that executes
// multiprogrammed workloads on the modelled multiprocessor under a
// processor allocation policy.
//
// The engine plays three roles from the paper's testbed at once:
//
//   - the hardware: processors with per-processor caches (modelled by
//     internal/footprint, calibrated against internal/cache) connected by a
//     contended bus (internal/bus);
//   - the operating system: context switches with the measured 750 µs path
//     length, plus the task preemption/resumption machinery;
//   - Minos and the jobs' user-level thread runtimes: jobs reflect their
//     instantaneous demand, mark idle processors willing-to-yield (after
//     the policy's yield delay), and the policy's decisions move
//     processors between jobs.
//
// Every quantity in the paper's response-time model (Figure 1) is measured
// per job: work, waste, number of reallocations, %affinity, cache penalty
// time, and average allocation.
package sched

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/cachemodel"
	"repro/internal/eventq"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Config describes one simulation run.
type Config struct {
	// Machine is the hardware description.
	Machine machine.Config
	// Policy is the allocation discipline. Policy values carry per-run
	// state and must be freshly constructed per run.
	Policy alloc.Policy
	// Apps are the jobs to run; all arrive at time zero unless Arrivals
	// is set.
	Apps []workload.App
	// Arrivals optionally staggers job arrival times (len must equal
	// len(Apps) when non-nil).
	Arrivals []simtime.Time
	// UserSwitch is the user-level thread dispatch cost (baseline machine
	// units). Defaults to 50 µs.
	UserSwitch simtime.Duration
	// Seed drives the arbitrary choices of affinity-blind task dispatch
	// (real systems resolve these by queue timing noise). Runs with the
	// same seed are bitwise reproducible. Defaults to 1.
	Seed uint64
	// CacheModel selects the per-processor cache implementation: the fast
	// analytic footprint model (default) or the exact trace-replaying
	// reference model used for validation.
	CacheModel cachemodel.Kind
	// Trace, when non-nil, records every scheduler decision for Gantt
	// rendering and debugging (see internal/trace).
	Trace *trace.Log
	// MaxEvents caps the run as a livelock backstop. Defaults to 50M.
	MaxEvents uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.UserSwitch == 0 {
		out.UserSwitch = 50 * simtime.Microsecond
	}
	if out.MaxEvents == 0 {
		out.MaxEvents = 50_000_000
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.Machine.Processors >= 1<<taskGIDBits-1 {
		return fmt.Errorf("sched: %d processors overflow the %d-bit task-id field",
			c.Machine.Processors, taskGIDBits)
	}
	if c.Policy == nil {
		return fmt.Errorf("sched: no policy")
	}
	if len(c.Apps) == 0 {
		return fmt.Errorf("sched: no jobs")
	}
	for i, a := range c.Apps {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("sched: app %d: %w", i, err)
		}
	}
	if c.Arrivals != nil && len(c.Arrivals) != len(c.Apps) {
		return fmt.Errorf("sched: %d arrival times for %d apps", len(c.Arrivals), len(c.Apps))
	}
	if c.UserSwitch < 0 {
		return fmt.Errorf("sched: negative user switch cost")
	}
	return nil
}

// JobMetrics reports one job's outcome, covering every term of the paper's
// response-time model.
type JobMetrics struct {
	// Job and App identify the job.
	Job int
	App string
	// Arrival and Completion bracket the job's residence.
	Arrival    simtime.Time
	Completion simtime.Time
	// ResponseTime is Completion − Arrival.
	ResponseTime simtime.Duration
	// Work is the pure compute executed, in baseline-machine
	// processor-time (divide by Machine.Speed for wall time).
	Work simtime.Duration
	// MissTime is wall processor-time stalled on cache misses.
	MissTime simtime.Duration
	// MissLines is the expected number of cache lines fetched.
	MissLines float64
	// SwitchTime is wall processor-time spent in kernel reallocation path
	// plus user-level thread dispatch.
	SwitchTime simtime.Duration
	// Waste is wall processor-time the job held processors idle.
	Waste simtime.Duration
	// InvalLines is the expected number of cache lines lost to coherency
	// invalidations (writes to job-shared data from other processors).
	InvalLines float64
	// Reallocations counts processor reallocation dispatches experienced.
	Reallocations int
	// AffinityHits counts reallocations where the task resumed on the
	// processor it last ran on.
	AffinityHits int
	// AvgAlloc is the time-average number of processors held.
	AvgAlloc float64
}

// PctAffinity returns AffinityHits/Reallocations (0 when none).
func (m JobMetrics) PctAffinity() float64 {
	if m.Reallocations == 0 {
		return 0
	}
	return float64(m.AffinityHits) / float64(m.Reallocations)
}

// ReallocInterval returns the mean per-processor time between
// reallocations, the quantity in row 3 of the paper's Table 3:
// ResponseTime × AvgAlloc / Reallocations.
func (m JobMetrics) ReallocInterval() simtime.Duration {
	if m.Reallocations == 0 {
		return 0
	}
	return simtime.Duration(float64(m.ResponseTime) * m.AvgAlloc / float64(m.Reallocations))
}

// Result reports a full simulation run.
type Result struct {
	Policy string
	Jobs   []JobMetrics
	// Makespan is the completion time of the last job.
	Makespan simtime.Time
	// Events is the number of simulator events fired.
	Events uint64
	// BusTransactions counts line fills across the run.
	BusTransactions uint64
	// Profile[k] is the total time exactly k processors were executing
	// threads (the parallelism profile of the whole run, as in the
	// paper's Figures 2–4 when run with a single job).
	Profile []simtime.Duration
	// Stats is the run's Figure 1 decomposition: reallocation counts
	// split by affinity (P^A vs P^NA charges), the cache-reload
	// transient, cache-model operation totals, and event-queue depth.
	// Every field is a deterministic function of Config — identical for
	// the exact model's fast and naive protocols — so whole Results stay
	// comparable in differential and reuse tests.
	Stats obs.SimStats
}

// MeanResponse returns the mean job response time in seconds.
func (r Result) MeanResponse() float64 {
	if len(r.Jobs) == 0 {
		return 0
	}
	var sum float64
	for _, j := range r.Jobs {
		sum += j.ResponseTime.SecondsF()
	}
	return sum / float64(len(r.Jobs))
}

// taskState tracks where a kernel task is.
type taskState int

const (
	taskIdle      taskState = iota // no thread attached, not on a processor
	taskPreempted                  // thread attached, awaiting a processor
	taskOnProc                     // dispatched on a processor
)

type taskRT struct {
	ref   alloc.TaskRef
	gid   int // footprint owner id, globally unique
	state taskState
	proc  int // current processor when onProc, else -1

	thread    workload.ThreadID
	hasThread bool

	lastProc int // affinity history, P = 1
	// dispatchCompute is the compute executed since the task last started
	// rebuilding its footprint on its current processor (reset on
	// reallocation dispatches).
	dispatchCompute simtime.Duration
	// residentAtDispatch is the footprint the task had on its processor
	// at that point.
	residentAtDispatch float64
}

type jobRT struct {
	id      int
	app     workload.App
	job     *workload.Job
	tasks   []*taskRT
	arrived bool
	arrival simtime.Time
	done    bool
	doneAt  simtime.Time

	// taskStore owns every taskRT ever created for this slot, so reused
	// engines recycle task structs instead of allocating: tasks is always a
	// prefix view of the same objects, re-initialised as the run spawns
	// kernel tasks.
	taskStore []*taskRT

	// arriveFn is the job's arrival callback, built once when the slot is
	// created (a jobRT at pool index i always simulates job id i).
	arriveFn func()

	// Metrics accumulation.
	work       simtime.Duration
	missTime   simtime.Duration
	missLines  float64
	switchTime simtime.Duration
	waste      simtime.Duration
	reallocs   int
	affinity   int

	invalLines float64

	allocInt        float64 // ∫ alloc dt, ns·processors
	curAlloc        int
	lastAllocChange simtime.Time

	// rng drives arbitrary task selection for affinity-blind policies,
	// modelling an unordered suspended-task queue: deterministic iteration
	// would pair the same tasks with the same processors run after run,
	// giving Dynamic an accidental %affinity far above the paper's
	// observed chance level (Table 3: 21-31%).
	rng *xrand.Source

	// pickScratch and sibScratch are reused buffers for pickArbitrary and
	// invalidateShared, both called once or more per execution segment.
	pickScratch []*taskRT
	sibScratch  []int
}

type procRT struct {
	id      int
	job     int // -1 unassigned
	task    *taskRT
	running bool
	idle    bool // assigned with no work; idleStart is valid
	yield   bool
	// bound, when valid, is the specific task an allocator decision
	// directed at this processor (rules A.1/A.2); consumed at dispatch.
	bound    alloc.TaskRef
	lastTask alloc.TaskRef

	// Current execution segment.
	segEv       *eventq.Event
	segStart    simtime.Time
	segWall     simtime.Duration
	segWork     simtime.Duration // baseline compute planned
	segMisses   float64
	segMissTime simtime.Duration

	idleStart simtime.Time
	yieldEv   *eventq.Event

	// segDoneFn and yieldFn are this processor's event callbacks, built
	// once at engine setup and reused for every scheduled event.
	segDoneFn func()
	yieldFn   func()
}

type engine struct {
	cfg   Config
	mc    machine.Config
	pol   alloc.Policy
	q     *eventq.Queue
	bus   *bus.Bus
	model cachemodel.Model
	jobs  []*jobRT
	procs []*procRT
	st    *alloc.State

	lastCredit  simtime.Time
	credits     []float64
	activeJobs  int
	runningCnt  int
	lastProfile simtime.Time
	profile     []simtime.Duration
	quantumEv   *eventq.Event

	// procPool and jobPool own every runtime struct the engine has ever
	// built; procs and jobs are prefix views sized to the current run. Pool
	// entries keep their once-built callbacks (segDoneFn/yieldFn/arriveFn)
	// across runs, so the steady-state run path allocates no closures.
	procPool []*procRT
	jobPool  []*jobRT

	// tickFn is the quantum-tick callback, built on first use and reused
	// for every tick of every run.
	tickFn func()

	// stats accumulates the run's dispatch-classification counters; plain
	// integer increments on the dispatch path (not atomics — the engine is
	// single-goroutine), folded into Result.Stats at the end of the run.
	stats obs.SimStats

	// audit, when set (only tests set it), runs at every policy event
	// after the snapshot is published and before the policy reads it. It
	// survives reset.
	audit func(trig alloc.Trigger, arg int)
}

// Runner executes simulation runs back to back, reusing the full engine
// substrate across runs: the pending-event heap (with its recycled Event
// objects), the per-processor cache model, the bus, the allocator state,
// and every per-processor/per-job runtime struct with its once-built event
// callbacks. A Runner is exactly as deterministic as Run: a reused Runner
// and a fresh one produce bitwise identical Results for the same Config,
// including across heterogeneous back-to-back configs (see DESIGN.md,
// "Allocation discipline").
//
// A Runner is NOT safe for concurrent use; the experiment campaign layer
// pools one Runner per worker goroutine (see internal/experiments).
type Runner struct {
	q   eventq.Queue
	eng *engine

	// Cached cache model, rebuilt only when the next run's construction
	// parameters differ from the ones it was built for.
	model      cachemodel.Model
	modelKind  cachemodel.Kind
	modelProcs int
	modelCache cache.Config
	modelSeed  uint64
}

// NewRunner returns an empty Runner; state is grown on first use.
func NewRunner() *Runner { return &Runner{} }

// model returns a cache model for the run, reusing (after a Reset) the
// previous run's instance when its construction parameters match. The
// footprint model is seed-independent, so for it a seed change alone never
// forces a rebuild.
func (r *Runner) cacheModel(cfg Config) (cachemodel.Model, error) {
	seedOK := r.modelSeed == cfg.Seed || cfg.CacheModel == cachemodel.KindFootprint
	if r.model != nil && r.modelKind == cfg.CacheModel &&
		r.modelProcs == cfg.Machine.Processors &&
		r.modelCache == cfg.Machine.Cache && seedOK {
		r.model.Reset()
		return r.model, nil
	}
	m, err := cachemodel.New(cfg.CacheModel, cfg.Machine.Processors, cfg.Machine.Cache, cfg.Seed)
	if err != nil {
		return nil, err
	}
	r.model = m
	r.modelKind = cfg.CacheModel
	r.modelProcs = cfg.Machine.Processors
	r.modelCache = cfg.Machine.Cache
	r.modelSeed = cfg.Seed
	return m, nil
}

// Run executes the configured simulation to completion. It is equivalent
// to the package-level Run but amortizes the whole engine substrate across
// calls; steady-state reuse allocates almost nothing per run.
func (r *Runner) Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg = cfg.withDefaults()
	model, err := r.cacheModel(cfg)
	if err != nil {
		return Result{}, err
	}
	r.q.Reset()
	if r.eng == nil {
		r.eng = &engine{q: &r.q}
	}
	if err := r.eng.reset(cfg, model); err != nil {
		return Result{}, err
	}
	return r.eng.run()
}

// Run executes the configured simulation to completion on a fresh Runner.
func Run(cfg Config) (Result, error) {
	return NewRunner().Run(cfg)
}

// reset reinitialises the engine for a new run, reusing every piece of
// substrate whose geometry still fits and growing the pools otherwise. A
// reset engine is indistinguishable from a freshly constructed one.
func (e *engine) reset(cfg Config, model cachemodel.Model) error {
	e.cfg = cfg
	e.mc = cfg.Machine
	e.pol = cfg.Policy
	e.model = model
	nproc := cfg.Machine.Processors
	njob := len(cfg.Apps)

	if e.bus == nil {
		e.bus = bus.MustNew(cfg.Machine.LineFill, cfg.Machine.BusWindow)
	} else {
		e.bus.Reset(cfg.Machine.LineFill, cfg.Machine.BusWindow)
	}
	if e.st == nil {
		e.st = alloc.NewState(nproc, njob)
	} else {
		e.st.Reset(nproc, njob)
	}
	e.st.SetAffinity(e)
	e.credits = sizedZero(e.credits, njob)
	e.profile = sizedZero(e.profile, nproc+1)
	e.lastCredit = 0
	e.activeJobs = 0
	e.runningCnt = 0
	e.lastProfile = 0
	e.quantumEv = nil
	e.stats = obs.SimStats{}

	// Processor runtime slots. Callbacks are built once per slot so that
	// the hot path (one completion event per execution segment, one yield
	// event per idle span) schedules them without allocating a fresh
	// closure per event — or even per run.
	for len(e.procPool) < nproc {
		pid := len(e.procPool)
		pr := &procRT{id: pid}
		pr.segDoneFn = func() { e.segmentDone(pid) }
		pr.yieldFn = func() { e.yieldFire(pid) }
		e.procPool = append(e.procPool, pr)
	}
	e.procs = e.procPool[:nproc]
	for _, pr := range e.procs {
		pr.job = -1
		pr.task = nil
		pr.running = false
		pr.idle = false
		pr.yield = false
		pr.bound = alloc.NoTask
		pr.lastTask = alloc.NoTask
		pr.segEv = nil
		pr.segStart = 0
		pr.segWall = 0
		pr.segWork = 0
		pr.segMisses = 0
		pr.segMissTime = 0
		pr.idleStart = 0
		pr.yieldEv = nil
	}

	// Job runtime slots, with their workload instances and RNG streams
	// rewound in place.
	for len(e.jobPool) < njob {
		i := len(e.jobPool)
		jr := &jobRT{id: i, job: &workload.Job{}, rng: &xrand.Source{}}
		jr.arriveFn = func() { e.arrive(i) }
		e.jobPool = append(e.jobPool, jr)
	}
	e.jobs = e.jobPool[:njob]
	for i, jr := range e.jobs {
		jr.app = cfg.Apps[i]
		if err := jr.job.Reset(i, cfg.Apps[i]); err != nil {
			return err
		}
		jr.rng.Seed(cfg.Seed, 0x100+uint64(i))
		jr.tasks = jr.tasks[:0]
		jr.arrived = false
		jr.arrival = 0
		jr.done = false
		jr.doneAt = 0
		jr.work = 0
		jr.missTime = 0
		jr.missLines = 0
		jr.switchTime = 0
		jr.waste = 0
		jr.reallocs = 0
		jr.affinity = 0
		jr.invalLines = 0
		jr.allocInt = 0
		jr.curAlloc = 0
		jr.lastAllocChange = 0
	}
	return nil
}

// sizedZero returns s with length n and every element zeroed, reusing its
// backing array when possible.
func sizedZero[T int64 | float64 | simtime.Duration](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// start seeds the event queue with the run's job arrivals and, for
// quantum-driven policies, the first quantum tick.
func (e *engine) start() {
	cfg := e.cfg
	for i, jr := range e.jobs {
		at := simtime.Time(0)
		if cfg.Arrivals != nil {
			at = cfg.Arrivals[i]
		}
		e.q.At(at, jr.arriveFn)
	}
	if q := e.pol.Quantum(); q > 0 {
		if e.tickFn == nil {
			e.tickFn = func() {
				e.q.Free(e.quantumEv)
				e.quantumEv = nil
				if e.activeJobsRemaining() {
					e.policyEvent(alloc.TrigQuantum, -1)
					e.quantumEv = e.q.After(e.pol.Quantum(), e.tickFn)
				}
			}
		}
		e.quantumEv = e.q.After(q, e.tickFn)
	}
}

// run drives the event loop.
func (e *engine) run() (Result, error) {
	e.start()
	events, err := e.q.Run(e.cfg.MaxEvents)
	if err != nil {
		return Result{}, err
	}
	for _, j := range e.jobs {
		if !j.done {
			return Result{}, fmt.Errorf("sched: deadlock — job %d (%s) never completed (demand=%d alloc=%d)",
				j.id, j.app.Name, j.job.Demand(), j.curAlloc)
		}
	}
	return e.result(events), nil
}

func (e *engine) activeJobsRemaining() bool { return e.activeJobs > 0 }

func (e *engine) now() simtime.Time { return e.q.Now() }

// record appends a trace event when tracing is enabled.
func (e *engine) record(kind trace.Kind, proc, job, task int, realloc, affinity bool) {
	e.cfg.Trace.Record(trace.Event{
		At: e.now(), Kind: kind, Proc: proc, Job: job, Task: task,
		Realloc: realloc, Affinity: affinity,
	})
}

// ---------------------------------------------------------------------------
// Metrics plumbing.

func (e *engine) noteProfile() {
	now := e.now()
	e.profile[e.runningCnt] += now.Sub(e.lastProfile)
	e.lastProfile = now
}

func (e *engine) setRunning(p *procRT, running bool) {
	if p.running == running {
		return
	}
	e.noteProfile()
	p.running = running
	if running {
		e.runningCnt++
	} else {
		e.runningCnt--
	}
}

func (e *engine) noteAlloc(j *jobRT, delta int) {
	now := e.now()
	j.allocInt += float64(j.curAlloc) * float64(now.Sub(j.lastAllocChange))
	j.lastAllocChange = now
	j.curAlloc += delta
}

// beginIdle puts an assigned processor into the idle-held state, starting
// waste accrual and the yield-delay clock.
func (e *engine) beginIdle(p *procRT) {
	e.setRunning(p, false)
	p.task = nil
	p.idle = true
	p.idleStart = e.now()
	e.record(trace.Idle, p.id, p.job, -1, false, false)
	delay := e.pol.YieldDelay()
	if delay <= 0 {
		p.yield = true
		e.record(trace.Yield, p.id, p.job, -1, false, false)
		e.policyEvent(alloc.TrigProcFree, p.id)
		return
	}
	p.yieldEv = e.q.After(delay, p.yieldFn)
}

// yieldFire is the yield-delay expiry callback for processor pid.
func (e *engine) yieldFire(pid int) {
	pp := e.procs[pid]
	e.q.Free(pp.yieldEv)
	pp.yieldEv = nil
	if pp.job >= 0 && !pp.running {
		pp.yield = true
		e.record(trace.Yield, pid, pp.job, -1, false, false)
		e.policyEvent(alloc.TrigProcFree, pid)
	}
}

// endIdle stops waste accrual, attributing the idle span to the owning job.
func (e *engine) endIdle(p *procRT) {
	if !p.idle || p.job < 0 {
		return
	}
	p.idle = false
	e.jobs[p.job].waste += e.now().Sub(p.idleStart)
	if p.yieldEv != nil {
		e.q.Cancel(p.yieldEv)
		e.q.Free(p.yieldEv)
		p.yieldEv = nil
	}
	p.yield = false
}

// ---------------------------------------------------------------------------
// Job lifecycle.

func (e *engine) arrive(id int) {
	j := e.jobs[id]
	j.arrived = true
	j.arrival = e.now()
	j.lastAllocChange = e.now()
	e.activeJobs++
	e.record(trace.JobArrive, -1, id, -1, false, false)
	e.policyEvent(alloc.TrigArrival, id)
}

func (e *engine) completeJob(j *jobRT) {
	j.done = true
	j.doneAt = e.now()
	e.record(trace.JobComplete, -1, j.id, -1, false, false)
	e.noteAlloc(j, 0)
	e.activeJobs--
	// Release the job's processors.
	for _, p := range e.procs {
		if p.job == j.id {
			e.releaseProc(p)
		}
	}
	e.policyEvent(alloc.TrigCompletion, j.id)
}

// releaseProc returns a processor to the unassigned pool.
func (e *engine) releaseProc(p *procRT) {
	if p.job < 0 {
		return
	}
	if p.running {
		e.preempt(p)
	}
	e.endIdle(p)
	e.record(trace.Release, p.id, p.job, -1, false, false)
	e.noteAlloc(e.jobs[p.job], -1)
	p.job = -1
	p.task = nil
	p.bound = alloc.NoTask
}

// ---------------------------------------------------------------------------
// Dispatch and execution.

// taskGIDBits is the width reserved for the within-job task index in a
// global task id. 2^20 tasks per job is far beyond any machine size the
// simulator accepts (Config.Validate bounds Processors accordingly), and
// taskGID itself fails loudly rather than silently colliding.
const taskGIDBits = 20

// taskGID assigns globally unique footprint owner ids.
func taskGID(job, task int) int {
	if task+1 >= 1<<taskGIDBits {
		panic(fmt.Sprintf("sched: task index %d overflows the %d-bit task-id field", task, taskGIDBits))
	}
	return job<<taskGIDBits | (task + 1)
}

// chooseTask selects which of job j's kernel tasks should run on processor
// p, honoring the policy's affinity preference. It returns nil when the job
// has no dispatchable work.
func (e *engine) chooseTask(j *jobRT, p *procRT) *taskRT {
	// A task the allocator targeted at this processor (rules A.1/A.2).
	if p.bound.Valid() && p.bound.Job == j.id && p.bound.Task < len(j.tasks) {
		t := j.tasks[p.bound.Task]
		if t.state == taskPreempted || (t.state == taskIdle && j.job.ReadyCount() > 0) {
			return t
		}
	}
	if e.pol.PrefersAffinity() {
		// Affinity policies keep per-task processor histories (P = 1) in
		// the allocator; an untargeted grant still dispatches a task that
		// last ran on this processor when one is available.
		for _, t := range j.tasks {
			if t.lastProc != p.id || t.state == taskOnProc {
				continue
			}
			if t.state == taskPreempted || j.job.ReadyCount() > 0 {
				return t
			}
		}
	}
	// Any preempted task (it holds an in-progress thread), picked
	// arbitrarily from the suspended queue.
	if t := j.pickArbitrary(taskPreempted); t != nil {
		return t
	}
	// Any idle task, if there is a ready thread for it.
	if j.job.ReadyCount() > 0 {
		if t := j.pickArbitrary(taskIdle); t != nil {
			return t
		}
		// Create a new kernel task (jobs start workers lazily, up to one
		// per processor), recycling the slot's store on reused engines.
		if len(j.tasks) < e.mc.Processors {
			idx := len(j.tasks)
			var t *taskRT
			if idx < len(j.taskStore) {
				t = j.taskStore[idx]
			} else {
				t = &taskRT{}
				j.taskStore = append(j.taskStore, t)
			}
			*t = taskRT{
				ref:      alloc.TaskRef{Job: j.id, Task: idx},
				gid:      taskGID(j.id, idx),
				proc:     -1,
				lastProc: -1,
			}
			j.tasks = append(j.tasks, t)
			return t
		}
	}
	return nil
}

// dispatch places a task of processor p's assigned job onto p and starts
// (or resumes) a thread. If the job has no dispatchable work the processor
// idles in place.
func (e *engine) dispatch(p *procRT) {
	j := e.jobs[p.job]
	t := e.chooseTask(j, p)
	if t == nil {
		e.beginIdle(p)
		return
	}
	if !t.hasThread {
		tid, ok := j.job.Attach()
		if !ok {
			e.beginIdle(p)
			return
		}
		t.thread = tid
		t.hasThread = true
	}

	// Classify the dispatch. A reallocation occurred when the task is not
	// simply continuing on the processor it occupied with nothing having
	// run in between.
	continuation := t.lastProc == p.id && p.lastTask == t.ref
	var overhead simtime.Duration
	if continuation {
		overhead = e.mc.Compute(e.cfg.UserSwitch)
	} else {
		overhead = e.mc.SwitchPath
		j.reallocs++
		e.stats.Reallocations++
		if t.lastProc == p.id {
			j.affinity++
			e.stats.PACharges++
		} else {
			e.stats.PNACharges++
			if t.lastProc >= 0 {
				e.stats.Migrations++
			}
		}
		// The footprint rebuild restarts: coverage is measured from here,
		// discounted by whatever survived on this processor.
		t.dispatchCompute = 0
		t.residentAtDispatch = e.model.Resident(p.id, t.gid)
	}
	j.switchTime += overhead

	t.state = taskOnProc
	t.proc = p.id
	p.task = t
	p.bound = alloc.NoTask
	e.record(trace.Dispatch, p.id, j.id, t.ref.Task, !continuation, !continuation && t.lastProc == p.id)
	e.endIdle(p)
	e.startSegment(p, overhead)
	if !continuation {
		// The first segment after a reallocation bears the cache-reload
		// transient: its miss stall is the penalty the paper charges per
		// switch (P^A when the footprint partially survived, P^NA when not).
		e.stats.PenaltyNs += int64(p.segMissTime)
	}
}

// startSegment schedules execution of the task's current thread to
// completion (unless preempted first).
func (e *engine) startSegment(p *procRT, overhead simtime.Duration) {
	t := p.task
	j := e.jobs[p.job]
	w := j.job.Remaining(t.thread)
	c0 := t.dispatchCompute
	misses := e.model.Plan(p.id, t.gid, &j.app.Pattern, c0, w, t.residentAtDispatch)
	missTime := e.bus.ServiceN(e.now(), int(misses+0.5))
	wall := overhead + e.mc.Compute(w) + missTime

	p.segStart = e.now()
	p.segWall = wall
	p.segWork = w
	p.segMisses = misses
	p.segMissTime = missTime
	e.setRunning(p, true)
	p.segEv = e.q.After(wall, p.segDoneFn)
}

// segmentDone fires when a thread finishes on processor pid.
func (e *engine) segmentDone(pid int) {
	p := e.procs[pid]
	t := p.task
	j := e.jobs[p.job]
	e.q.Free(p.segEv)

	// Account the completed segment.
	committed := e.model.Commit(p.id, t.gid, &j.app.Pattern, t.dispatchCompute, p.segWork, t.residentAtDispatch)
	e.invalidateShared(p, j, t, p.segWork)
	t.dispatchCompute += p.segWork
	j.work += p.segWork
	j.missTime += p.segMissTime
	j.missLines += committed
	j.job.Progress(t.thread, p.segWork)
	j.job.Complete(t.thread)
	t.hasThread = false
	p.lastTask = t.ref
	t.lastProc = p.id
	p.segEv = nil

	if j.job.Done() {
		t.state = taskIdle
		t.proc = -1
		e.setRunning(p, false)
		e.completeJob(j)
		return
	}

	// Continue this task with the next ready thread, if any.
	if tid, ok := j.job.Attach(); ok {
		t.thread = tid
		t.hasThread = true
		overhead := e.mc.Compute(e.cfg.UserSwitch)
		j.switchTime += overhead
		e.startSegment(p, overhead)
	} else {
		t.state = taskIdle
		t.proc = -1
		e.beginIdle(p)
	}

	// New threads released by the completion may be runnable on the job's
	// other idle processors, or may raise demand above allocation.
	e.fillIdleProcs(j)
	if j.job.Demand() > j.curAlloc {
		e.policyEvent(alloc.TrigDemandUp, j.id)
	}
}

// fillIdleProcs dispatches a job's runnable work onto processors it already
// holds idle — a user-level action requiring no allocator involvement.
func (e *engine) fillIdleProcs(j *jobRT) {
	if j.done {
		return
	}
	for _, p := range e.procs {
		if p.job != j.id || p.running {
			continue
		}
		if j.job.ReadyCount() == 0 && !e.hasPreempted(j) {
			break
		}
		e.dispatch(p)
	}
}

// invalidateShared models the coherency cost of the segment just committed:
// the fraction of the task's touched lines that are written shared data
// invalidates the job's sibling tasks' copies on other processors.
func (e *engine) invalidateShared(p *procRT, j *jobRT, t *taskRT, w simtime.Duration) {
	shared := j.app.SharedFrac
	if shared <= 0 || w <= 0 {
		return
	}
	c0 := t.dispatchCompute
	touched := j.app.Pattern.TouchRate(c0+w) - j.app.Pattern.TouchRate(c0)
	writes := touched * shared
	if writes < 0.5 {
		return
	}
	// j.tasks is in creation order, and so by ascending gid: the sibling
	// list is ascending, as the footprint model's InvalidateShared needs.
	siblings := j.sibScratch[:0]
	for _, sib := range j.tasks {
		if sib != t {
			siblings = append(siblings, sib.gid)
		}
	}
	j.sibScratch = siblings
	if len(siblings) == 0 {
		return
	}
	j.invalLines += e.model.InvalidateShared(p.id, siblings, writes)
}

// pickArbitrary returns a uniformly random task of j in the wanted state,
// or nil if none exists.
func (j *jobRT) pickArbitrary(want taskState) *taskRT {
	candidates := j.pickScratch[:0]
	for _, t := range j.tasks {
		if t.state == want {
			candidates = append(candidates, t)
		}
	}
	j.pickScratch = candidates
	if len(candidates) == 0 {
		return nil
	}
	return candidates[j.rng.Intn(len(candidates))]
}

func (e *engine) hasPreempted(j *jobRT) bool {
	for _, t := range j.tasks {
		if t.state == taskPreempted {
			return true
		}
	}
	return false
}

// preempt stops the processor's current segment, returning partial progress
// to the task (which keeps its thread — that is what affinity is about).
func (e *engine) preempt(p *procRT) {
	t := p.task
	j := e.jobs[p.job]
	e.q.Cancel(p.segEv)
	e.q.Free(p.segEv)
	p.segEv = nil

	elapsed := e.now().Sub(p.segStart)
	var frac float64
	if p.segWall > 0 {
		frac = float64(elapsed) / float64(p.segWall)
	}
	if frac > 1 {
		frac = 1
	}
	workDone := p.segWork.Scale(frac)
	missTimeDone := p.segMissTime.Scale(frac)

	missDone := e.model.Commit(p.id, t.gid, &j.app.Pattern, t.dispatchCompute, workDone, t.residentAtDispatch)
	e.invalidateShared(p, j, t, workDone)
	t.dispatchCompute += workDone
	j.work += workDone
	j.missTime += missTimeDone
	j.missLines += missDone
	j.job.Progress(t.thread, workDone)

	t.state = taskPreempted
	t.proc = -1
	t.lastProc = p.id
	p.lastTask = t.ref
	p.task = nil
	e.record(trace.Preempt, p.id, j.id, t.ref.Task, false, false)
	e.setRunning(p, false)
}

// ---------------------------------------------------------------------------
// Policy interaction.

// updateCredits integrates the McCann-style priority credits: a job gains
// credit while holding fewer processors than its fair share and spends it
// while holding more.
func (e *engine) updateCredits() {
	now := e.now()
	dt := now.Sub(e.lastCredit).SecondsF()
	e.lastCredit = now
	if dt <= 0 || e.activeJobs == 0 {
		return
	}
	fair := float64(e.mc.Processors) / float64(e.activeJobs)
	for _, j := range e.jobs {
		if j.arrived && !j.done {
			e.credits[j.id] += (fair - float64(j.curAlloc)) * dt
		}
	}
}

// buildState publishes the allocator-visible snapshot: the per-job scalars
// and each processor's owner and yield mark. The affinity histories are
// not copied: the policy asks for them through AppendDesired and LastTask,
// which read the same run state, unchanged while the policy decides.
func (e *engine) buildState() {
	s := e.st
	for _, j := range e.jobs {
		s.Active[j.id] = j.arrived && !j.done
		s.Credit[j.id] = e.credits[j.id]
		s.Demand[j.id] = j.job.Demand()
		s.Alloc[j.id] = j.curAlloc
		s.MaxPar[j.id] = j.app.MaxParallelism()
	}
	for _, p := range e.procs {
		s.ProcJob[p.id] = p.job
		s.ProcYield[p.id] = p.yield && !p.running
	}
}

// AppendDesired implements alloc.Affinity: for each of job j's tasks that
// could resume, the processor it last ran on, most critical first —
// preempted tasks hold in-progress threads; idle tasks can take new work
// when the job has ready threads. A job not in the system desires nothing.
func (e *engine) AppendDesired(buf []alloc.DesiredProc, j int) []alloc.DesiredProc {
	jr := e.jobs[j]
	if !jr.arrived || jr.done {
		return buf
	}
	for _, t := range jr.tasks {
		if t.state == taskPreempted && t.lastProc >= 0 {
			buf = append(buf, alloc.DesiredProc{Proc: t.lastProc, Task: t.ref})
		}
	}
	if jr.job.ReadyCount() > 0 {
		for _, t := range jr.tasks {
			if t.state == taskIdle && t.lastProc >= 0 {
				buf = append(buf, alloc.DesiredProc{Proc: t.lastProc, Task: t.ref})
			}
		}
	}
	return buf
}

// LastTask implements alloc.Affinity: processor p's last task is resumable
// when its job is in the system and the task is preempted, or idle while
// the job has a ready thread for it.
func (e *engine) LastTask(p int) (alloc.TaskRef, bool) {
	last := e.procs[p].lastTask
	if !last.Valid() {
		return last, false
	}
	lj := e.jobs[last.Job]
	if !lj.arrived || lj.done {
		return last, false
	}
	lt := lj.tasks[last.Task]
	return last, lt.state == taskPreempted || (lt.state == taskIdle && lj.job.ReadyCount() > 0)
}

// policyEvent invokes the policy and applies its decisions.
func (e *engine) policyEvent(trig alloc.Trigger, arg int) {
	e.updateCredits()
	e.buildState()
	if e.audit != nil {
		e.audit(trig, arg)
	}
	decs := e.pol.Rebalance(e.st, trig, arg)
	e.applyDecisions(decs)
}

// applyDecisions moves processors between jobs as directed.
func (e *engine) applyDecisions(decs []alloc.Decision) {
	for _, d := range decs {
		if d.Proc < 0 || d.Proc >= len(e.procs) {
			panic(fmt.Sprintf("sched: policy %s decided for processor %d of %d",
				e.pol.Name(), d.Proc, len(e.procs)))
		}
		p := e.procs[d.Proc]
		if d.Job == p.job {
			continue
		}
		if d.Job >= 0 {
			nj := e.jobs[d.Job]
			if !nj.arrived || nj.done {
				continue // stale decision against a finished job
			}
		}
		e.releaseProc(p)
		if d.Job < 0 {
			continue
		}
		p.job = d.Job
		if d.HasTask {
			p.bound = d.Task
		} else {
			p.bound = alloc.NoTask
		}
		e.noteAlloc(e.jobs[d.Job], +1)
		e.dispatch(p)
	}
}

// ---------------------------------------------------------------------------
// Results.

func (e *engine) result(events uint64) Result {
	e.noteProfile()
	res := Result{
		Policy:          e.pol.Name(),
		Events:          events,
		BusTransactions: e.bus.Stats().Transactions,
		// The engine's profile accumulator is reused across runs, so the
		// returned Result gets its own copy.
		Profile: append([]simtime.Duration(nil), e.profile...),
		Stats:   e.stats,
	}
	res.Stats.Runs = 1
	res.Stats.Events = events
	res.Stats.EventqPeak = uint64(e.q.Peak())
	ms := e.model.Stats()
	res.Stats.Plans = ms.Plans
	res.Stats.Commits = ms.Commits
	res.Stats.Flushes = ms.Flushes
	res.Stats.InvalLines = ms.InvalLines
	for _, j := range e.jobs {
		res.Stats.WorkNs += int64(j.work)
		res.Stats.WasteNs += int64(j.waste)
		res.Stats.SwitchNs += int64(j.switchTime)
		res.Stats.MissNs += int64(j.missTime)
	}
	res.Jobs = make([]JobMetrics, 0, len(e.jobs))
	for _, j := range e.jobs {
		rt := j.doneAt.Sub(j.arrival)
		avgAlloc := 0.0
		if rt > 0 {
			avgAlloc = j.allocInt / float64(rt)
		}
		res.Jobs = append(res.Jobs, JobMetrics{
			Job:           j.id,
			App:           j.app.Name,
			Arrival:       j.arrival,
			Completion:    j.doneAt,
			ResponseTime:  rt,
			Work:          j.work,
			MissTime:      j.missTime,
			MissLines:     j.missLines,
			SwitchTime:    j.switchTime,
			Waste:         j.waste,
			InvalLines:    j.invalLines,
			Reallocations: j.reallocs,
			AffinityHits:  j.affinity,
			AvgAlloc:      avgAlloc,
		})
		if j.doneAt > res.Makespan {
			res.Makespan = j.doneAt
		}
	}
	return res
}
