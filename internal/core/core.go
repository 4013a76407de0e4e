// Package core implements the paper's space-sharing processor allocation
// policies — the system under study:
//
//   - Equipartition: constant equal allocation, reallocating only on job
//     arrival and completion (Tucker & Gupta's "process control"); the
//     static extreme, with perfect affinity and maximum waste.
//   - Dynamic: McCann et al.'s policy; instantaneous demand-driven
//     reallocation via rules D.1–D.3 with a priority-credit scheme; the
//     dynamic extreme, minimal waste and maximal reallocations, oblivious
//     to affinity.
//   - Dyn-Aff: Dynamic plus affinity rules A.1 (offer a freed processor to
//     its last task) and A.2 (honor a requesting job's desired processor),
//     both subordinate to the priority scheme.
//   - Dyn-Aff-NoPri: the artificial variant that sacrifices the priority
//     scheme to affinity (A.1 unconditionally; no D.3 fairness
//     preemption). Used only to bound the benefit affinity could buy.
//   - Dyn-Aff-Delay: Dyn-Aff plus "yield delay" — a job holds an idle
//     processor briefly in the hope of new work, trading a little waste
//     for fewer reallocations.
//
// A quantum-driven time-sharing round-robin (TimeShare) is also provided as
// the baseline for the paper's Section-8 space-vs-time-sharing contrast.
package core

import (
	"repro/internal/alloc"
	"repro/internal/simtime"
)

// DefaultYieldDelay is the hold time Dyn-Aff-Delay keeps an idle processor
// before offering it for reallocation.
const DefaultYieldDelay = 20 * simtime.Millisecond

// DefaultQuantum is the time-sharing baseline's slice length; DYNIX used
// 100 ms.
const DefaultQuantum = 100 * simtime.Millisecond

// creditSpendThreshold is the priority-credit surplus (in processor-seconds)
// beyond which a requester may preempt to a fully equal split under rule
// D.3.
const creditSpendThreshold = 2.0

// Equipartition maintains, to the extent possible, a constant equal
// allocation of processors to all jobs, reallocating only on job arrival
// and completion.
type Equipartition struct {
	decs   []alloc.Decision // reused decision buffer (see Rebalance)
	target []int            // reused allocation-number scratch, by job id
}

// NewEquipartition returns the Equipartition policy.
func NewEquipartition() *Equipartition { return &Equipartition{} }

// Name implements alloc.Policy.
func (*Equipartition) Name() string { return "Equipartition" }

// YieldDelay implements alloc.Policy; Equipartition never yields idle
// processors between arrivals.
func (*Equipartition) YieldDelay() simtime.Duration { return 0 }

// Quantum implements alloc.Policy.
func (*Equipartition) Quantum() simtime.Duration { return 0 }

// PrefersAffinity implements alloc.Policy; under Equipartition tasks
// essentially never move, so resuming the local task is the natural
// behaviour.
func (*Equipartition) PrefersAffinity() bool { return true }

// Rebalance implements alloc.Policy. On arrival or completion it computes
// each job's allocation number — every active job's count is incremented in
// turn, jobs dropping out at their maximum parallelism, until processors
// are exhausted — and then moves processors to match. The returned slice is
// a buffer owned by the policy, valid until the next Rebalance call.
func (e *Equipartition) Rebalance(s *alloc.State, trig alloc.Trigger, arg int) []alloc.Decision {
	if trig != alloc.TrigArrival && trig != alloc.TrigCompletion {
		return nil
	}
	e.decs = e.decs[:0]
	jobs := s.ActiveJobs()
	if len(jobs) == 0 {
		// Release everything.
		for p, j := range s.ProcJob {
			if j != -1 {
				e.decs = append(e.decs, alloc.Decision{Proc: p, Job: -1})
				s.Assign(p, -1)
			}
		}
		return e.decs
	}

	// Allocation numbers, indexed by job id.
	if cap(e.target) < s.NumJobs() {
		e.target = make([]int, s.NumJobs())
	}
	target := e.target[:s.NumJobs()]
	for j := range target {
		target[j] = 0
	}
	remaining := s.Procs
	for remaining > 0 {
		progressed := false
		for _, j := range jobs {
			if remaining == 0 {
				break
			}
			if target[j] >= s.MaxPar[j] {
				continue
			}
			target[j]++
			remaining--
			progressed = true
		}
		if !progressed {
			break // every job at its maximum parallelism
		}
	}

	assign := func(p, j int) {
		e.decs = append(e.decs, alloc.Decision{Proc: p, Job: j})
		s.Assign(p, j)
	}
	// Strip processors from completed jobs and over-allocated jobs.
	for p, j := range s.ProcJob {
		if j == -1 {
			continue
		}
		if !s.Active[j] || s.Alloc[j] > target[j] {
			assign(p, -1)
		}
	}
	// Hand unassigned processors to under-allocated jobs.
	free := s.UnassignedProcs()
	for _, j := range jobs {
		for s.Alloc[j] < target[j] && len(free) > 0 {
			assign(free[0], j)
			free = free[1:]
		}
	}
	return e.decs
}

// dynamicCore implements the shared machinery of the Dynamic family. The
// flags select the affinity rules (A.1/A.2), whether the priority scheme
// constrains them, and whether the D.3 fairness preemption applies.
type dynamicCore struct {
	name       string
	affinity   bool // apply rules A.1 and A.2
	priority   bool // priority scheme constrains affinity; D.3 enabled
	yieldDelay simtime.Duration
	// cursor rotates untargeted supply picks so that repeated bursts do
	// not systematically reacquire the same processors (a real allocator's
	// "least valuable" choice is effectively arbitrary); per-run state.
	cursor int
	// decs is the reused decision buffer returned by Rebalance, and
	// yieldScratch the reused rule-D.2 supply filter; both valid until the
	// next Rebalance call.
	decs         []alloc.Decision
	yieldScratch []int
}

// assign appends a decision and applies it to the snapshot provisionally.
func (d *dynamicCore) assign(s *alloc.State, p, j int, task alloc.TaskRef) {
	d.decs = append(d.decs, alloc.Decision{Proc: p, Job: j, Task: task, HasTask: task.Valid()})
	s.Assign(p, j)
}

// Name implements alloc.Policy.
func (d *dynamicCore) Name() string { return d.name }

// YieldDelay implements alloc.Policy.
func (d *dynamicCore) YieldDelay() simtime.Duration { return d.yieldDelay }

// Quantum implements alloc.Policy.
func (d *dynamicCore) Quantum() simtime.Duration { return 0 }

// PrefersAffinity implements alloc.Policy: only the affinity variants ask
// the job runtime to resume the processor's previous task.
func (d *dynamicCore) PrefersAffinity() bool { return d.affinity }

// Rebalance implements alloc.Policy for the Dynamic family. The returned
// slice is a buffer owned by the policy, valid until the next Rebalance
// call.
func (d *dynamicCore) Rebalance(s *alloc.State, trig alloc.Trigger, arg int) []alloc.Decision {
	if trig == alloc.TrigQuantum {
		return nil
	}
	d.decs = d.decs[:0]

	// Rule A.1: when a specific processor has just become available, give
	// it to the last task that ran on it, provided that task is resumable
	// and — under the priority scheme — its job's priority is as high as
	// any requester's. The grant is task-targeted: that task resumes on
	// the processor it has affinity for.
	if d.affinity && trig == alloc.TrigProcFree && arg >= 0 {
		p := arg
		last, resumable := s.LastTask(p)
		if resumable && s.Active[last.Job] && s.Demand[last.Job] > s.Alloc[last.Job] &&
			s.ProcJob[p] != last.Job {
			ok := true
			if d.priority {
				for _, r := range s.Requesters() {
					if r != last.Job && s.Credit[r] > s.Credit[last.Job] {
						ok = false
						break
					}
				}
			}
			if ok {
				d.assign(s, p, last.Job, last)
			}
		}
	}

	// Serve requesters highest-credit-first. Under rule A.2 each request
	// names a desired processor — where the requesting task last ran — and
	// the grant is task-targeted, but only when that processor is not
	// doing useful work (unassigned or willing to yield): affinity never
	// justifies preempting an active task, which is the consideration the
	// paper notes limits affinity's influence on the Dynamic discipline.
	// Remaining demand is served with the least valuable processor via
	// rules D.1, D.2 and D.3, and the job's runtime picks a task.
	//
	// Every grant takes a processor out of the idle supply (unassigned or
	// willing to yield) and none puts one back, so when the supply is empty
	// here, A.2, D.1 and D.2 cannot grant anything: each request goes
	// straight to D.3, and the engine is never asked for desired
	// processors.
	supply := hasSupply(s)
	for _, j := range s.Requesters() {
		var want []alloc.DesiredProc
		if d.affinity && supply {
			want = s.Desired(j)
		}
		desired := 0
		for s.Demand[j] > s.Alloc[j] {
			granted := false
			for desired < len(want) {
				dp := want[desired]
				desired++
				if dp.Proc >= 0 && idleAvailable(s, dp.Proc) && s.ProcJob[dp.Proc] != j {
					d.assign(s, dp.Proc, j, dp.Task)
					granted = true
					break
				}
			}
			if granted {
				continue
			}
			p := d.takeProcessor(s, j, supply)
			if p < 0 {
				break
			}
			d.assign(s, p, j, alloc.NoTask)
		}
	}
	return d.decs
}

// idleAvailable reports whether a processor may be taken without preempting
// useful work: it is unassigned or marked willing to yield.
func idleAvailable(s *alloc.State, p int) bool {
	return s.ProcJob[p] == -1 || s.ProcYield[p]
}

// hasSupply reports whether any processor is idleAvailable.
func hasSupply(s *alloc.State) bool {
	for p := range s.ProcJob {
		if idleAvailable(s, p) {
			return true
		}
	}
	return false
}

// takeProcessor selects the least valuable available processor for job j.
// supply reports whether any processor is idleAvailable; without one, only
// D.3 can yield a processor. It returns -1 when no processor may be taken.
func (d *dynamicCore) takeProcessor(s *alloc.State, j int, supply bool) int {
	pick := func(procs []int) int {
		if len(procs) == 0 {
			return -1
		}
		d.cursor++
		return procs[d.cursor%len(procs)]
	}
	if supply {
		// D.1: unassigned processors.
		if p := pick(s.UnassignedProcs()); p >= 0 {
			return p
		}
		// D.2: willing-to-yield processors of other jobs.
		yield := d.yieldScratch[:0]
		for _, p := range s.YieldingProcs() {
			if s.ProcJob[p] != j {
				yield = append(yield, p)
			}
		}
		d.yieldScratch = yield
		if p := pick(yield); p >= 0 {
			return p
		}
	}
	// D.3: equitable-allocation preemption. A requester holding
	// substantially more credit than the victim — accrued by using few
	// processors earlier, e.g. through sequential phases — may spend it to
	// acquire temporarily more than its fair share, down to a floor of
	// half the victim's fair share: the McCann scheme's credit-spending
	// behaviour. Without surplus credit, preemption stops once allocations
	// are within one processor of each other.
	if !d.priority {
		return -1
	}
	victim := s.LargestAllocJob(j)
	if victim < 0 {
		return -1
	}
	switch {
	case s.Credit[j] < s.Credit[victim]:
		// Preempting from a higher-priority job would undo its
		// legitimate credit spending and ping-pong processors.
		return -1
	case s.Credit[j] > s.Credit[victim]+creditSpendThreshold:
		floor := int(s.FairShare() / 2)
		if floor < 1 {
			floor = 1
		}
		if s.Alloc[victim] <= floor {
			return -1
		}
	default:
		if s.Alloc[victim] <= s.Alloc[j]+1 {
			return -1
		}
	}
	return pick(s.ProcsOf(victim))
}

// NewDynamic returns the basic Dynamic policy (McCann et al.): maximal
// reallocation, no affinity consideration.
func NewDynamic() alloc.Policy {
	return &dynamicCore{name: "Dynamic", priority: true}
}

// NewDynAff returns Dynamic with affinity rules A.1 and A.2, subordinate to
// the priority scheme.
func NewDynAff() alloc.Policy {
	return &dynamicCore{name: "Dyn-Aff", affinity: true, priority: true}
}

// NewDynAffNoPri returns the artificial variant that sacrifices the
// priority scheme (and rule D.3's fairness preemption) to affinity. The
// paper uses it only to bound the benefit affinity scheduling could
// provide; it is not suggested for real systems.
func NewDynAffNoPri() alloc.Policy {
	return &dynamicCore{name: "Dyn-Aff-NoPri", affinity: true, priority: false}
}

// NewDynAffDelay returns Dyn-Aff with the default yield delay.
func NewDynAffDelay() alloc.Policy {
	return NewDynAffDelayD(DefaultYieldDelay)
}

// NewDynAffDelayD returns Dyn-Aff with a specific yield delay.
func NewDynAffDelayD(delay simtime.Duration) alloc.Policy {
	return &dynamicCore{name: "Dyn-Aff-Delay", affinity: true, priority: true, yieldDelay: delay}
}

// TimeShare is the quantum-driven round-robin baseline: on every quantum
// expiry, processors are redistributed round-robin over the active jobs,
// rotating the starting job so that tasks migrate — the behaviour whose
// poor cache characteristics Section 8 contrasts with space sharing.
//
// The affinity variant models the discipline studied by Squillante &
// Lazowska (whose conclusions the paper's Section 8.2 contrasts): the same
// quantum-driven rotation, but when a job's turn returns to a processor,
// the task that last ran there is resumed. Because the rotation is cyclic,
// a job revisits the same processors and affinity pays off far more than
// under space sharing — reproducing why time-sharing studies found affinity
// so much more important.
type TimeShare struct {
	quantum  simtime.Duration
	rotation int
	affinity bool
	decs     []alloc.Decision // reused decision buffer (see Rebalance)
}

// NewTimeShare returns a time-sharing baseline with the given quantum
// (DefaultQuantum if q <= 0).
func NewTimeShare(q simtime.Duration) *TimeShare {
	if q <= 0 {
		q = DefaultQuantum
	}
	return &TimeShare{quantum: q}
}

// NewTimeShareAff returns the affinity-aware time-sharing variant.
func NewTimeShareAff(q simtime.Duration) *TimeShare {
	t := NewTimeShare(q)
	t.affinity = true
	return t
}

// Name implements alloc.Policy.
func (t *TimeShare) Name() string {
	if t.affinity {
		return "TimeShare-Aff"
	}
	return "TimeShare-RR"
}

// YieldDelay implements alloc.Policy.
func (*TimeShare) YieldDelay() simtime.Duration { return 0 }

// Quantum implements alloc.Policy.
func (t *TimeShare) Quantum() simtime.Duration { return t.quantum }

// PrefersAffinity implements alloc.Policy.
func (t *TimeShare) PrefersAffinity() bool { return t.affinity }

// Rebalance implements alloc.Policy. Arrivals, completions and quantum
// expiries redistribute all processors round-robin; the rotation advances
// each quantum so allocations (and therefore tasks) move between
// processors. The returned slice is a buffer owned by the policy, valid
// until the next Rebalance call.
func (t *TimeShare) Rebalance(s *alloc.State, trig alloc.Trigger, arg int) []alloc.Decision {
	switch trig {
	case alloc.TrigArrival, alloc.TrigCompletion, alloc.TrigQuantum:
	default:
		return nil
	}
	t.decs = t.decs[:0]
	jobs := s.ActiveJobs()
	if len(jobs) == 0 {
		for p, j := range s.ProcJob {
			if j != -1 {
				t.decs = append(t.decs, alloc.Decision{Proc: p, Job: -1})
				s.Assign(p, -1)
			}
		}
		return t.decs
	}
	if trig == alloc.TrigQuantum {
		t.rotation++
	}
	for p := 0; p < s.Procs; p++ {
		j := jobs[(p+t.rotation)%len(jobs)]
		if s.ProcJob[p] != j {
			t.decs = append(t.decs, alloc.Decision{Proc: p, Job: j})
			s.Assign(p, j)
		}
	}
	return t.decs
}

// PolicyNames lists the names ByName accepts, in presentation order —
// the space-sharing policies of Sections 5-6 followed by the Section-8
// time-sharing pair.
func PolicyNames() []string {
	return []string{
		"Equipartition",
		"Dynamic",
		"Dyn-Aff",
		"Dyn-Aff-Delay",
		"Dyn-Aff-NoPri",
		"TimeShare-RR",
		"TimeShare-Aff",
	}
}

// ByName constructs a policy by its paper name. Only the names
// PolicyNames lists are accepted: a policy has one spelling, so a
// campaign's policy list — part of its cache identity — has one too.
func ByName(name string) (alloc.Policy, bool) {
	switch name {
	case "Equipartition":
		return NewEquipartition(), true
	case "Dynamic":
		return NewDynamic(), true
	case "Dyn-Aff":
		return NewDynAff(), true
	case "Dyn-Aff-NoPri":
		return NewDynAffNoPri(), true
	case "Dyn-Aff-Delay":
		return NewDynAffDelay(), true
	case "TimeShare-RR":
		return NewTimeShare(0), true
	case "TimeShare-Aff":
		return NewTimeShareAff(0), true
	}
	return nil, false
}
