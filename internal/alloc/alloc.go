// Package alloc defines the Minos-style processor allocator framework: the
// allocator-visible system state, the triggers on which allocation is
// reconsidered, and the Policy interface that the paper's five space-sharing
// disciplines (implemented in internal/core) plug into.
//
// Minos, the allocator the paper uses, runs as a user-level process that
// jobs communicate with through shared memory: each job continually
// reflects its instantaneous processor demand, and marks processors it
// cannot use as "willing to yield". The discrete-event engine in
// internal/sched plays the role of the operating system plus that shared
// memory: before each policy invocation it publishes a fresh State snapshot
// of the per-job scalars (activity, demands, allocations, priority credits)
// and each processor's owner and yield mark, and afterwards it applies the
// policy's reassignment decisions, charging reallocation costs. The
// affinity histories the affinity rules consult (each job's desired
// processors, each processor's last task) are not copied into the
// snapshot: the engine answers them on demand through the Affinity source
// it installs once per run, so a policy that never asks pays nothing.
package alloc

import (
	"fmt"

	"repro/internal/simtime"
)

// TaskRef identifies a kernel task: the Task'th worker of job Job.
type TaskRef struct {
	Job, Task int
}

// NoTask is the absent task reference.
var NoTask = TaskRef{Job: -1, Task: -1}

// Valid reports whether the reference denotes a real task.
func (t TaskRef) Valid() bool { return t.Job >= 0 && t.Task >= 0 }

// Trigger identifies why the allocator is being invoked.
type Trigger int

// Allocation triggers.
const (
	// TrigArrival fires when a job enters the system (arg = job).
	TrigArrival Trigger = iota
	// TrigCompletion fires when a job leaves the system (arg = job).
	TrigCompletion
	// TrigDemandUp fires when a job's demand rises above its allocation
	// (arg = job) — the job is requesting additional processors.
	TrigDemandUp
	// TrigProcFree fires when a processor becomes available for
	// reallocation: unassigned, or marked willing-to-yield (arg = proc).
	TrigProcFree
	// TrigQuantum fires on quantum expiry for quantum-driven policies
	// (arg = -1).
	TrigQuantum
)

// String names the trigger.
func (t Trigger) String() string {
	switch t {
	case TrigArrival:
		return "arrival"
	case TrigCompletion:
		return "completion"
	case TrigDemandUp:
		return "demand-up"
	case TrigProcFree:
		return "proc-free"
	case TrigQuantum:
		return "quantum"
	}
	return fmt.Sprintf("Trigger(%d)", int(t))
}

// Decision reassigns one processor. Job == -1 releases the processor to the
// unassigned pool. When HasTask is set, Task directs the engine to dispatch
// that specific task on the processor (the task-targeted grants of affinity
// rules A.1 and A.2); otherwise the job's runtime picks an arbitrary
// suspended task. Task is an inline value (not a pointer) so building a
// targeted decision never heap-allocates.
type Decision struct {
	Proc    int
	Job     int
	Task    TaskRef
	HasTask bool
}

// State is the allocator-visible snapshot the engine publishes before each
// Rebalance call. Policies may freely mutate it as scratch space (for
// example, updating Alloc/ProcJob provisionally while constructing a
// decision list); the engine rebuilds it from authoritative run state
// before the next invocation.
type State struct {
	// Procs is the machine's processor count.
	Procs int

	// Per-job state, indexed by job ID.
	Active []bool    // job is in the system
	Demand []int     // instantaneous processor demand
	Alloc  []int     // processors currently assigned
	Credit []float64 // accrued priority credit (McCann et al. scheme)
	MaxPar []int     // maximum parallelism (Equipartition's cap)

	// Per-processor state.
	ProcJob   []int  // assigned job, or -1
	ProcYield []bool // assigned, idle, and offered for reallocation

	// aff answers the affinity queries (Desired, LastTask) from the
	// engine's run state; nil answers that no affinity history exists.
	aff Affinity

	// Reused backing for the query helpers (ActiveJobs, Requesters,
	// UnassignedProcs, YieldingProcs, ProcsOf, Desired). Each helper owns
	// one scratch slice, so the slice a helper returns stays valid until
	// that same helper is called again — the access pattern every policy
	// follows — and the per-Rebalance query storm allocates nothing.
	activeScratch, reqScratch, unassignedScratch, yieldScratch, procsOfScratch []int

	desiredScratch []DesiredProc
}

// Affinity is the source of the affinity histories (T = P = 1, as in the
// paper) that rules A.1 and A.2 consult. The engine implements it over its
// own run state and installs it with SetAffinity, so the answers are
// computed only when a policy asks and always reflect the state the
// snapshot was published from: the engine does not run while a policy
// decides.
type Affinity interface {
	// AppendDesired appends job j's desired processors to buf and returns
	// the extended slice; see State.Desired.
	AppendDesired(buf []DesiredProc, j int) []DesiredProc
	// LastTask returns the last task to have run on processor p, and
	// whether it is resumable; see State.LastTask.
	LastTask(p int) (task TaskRef, resumable bool)
}

// SetAffinity installs the source of the affinity queries. The engine
// calls it once per run, after Reset.
func (s *State) SetAffinity(a Affinity) { s.aff = a }

// Desired lists job j's desired processors under allocation rule A.2 —
// for each of the job's resumable tasks, the processor it last ran on —
// ordered by criticality (preempted tasks, which hold in-progress threads,
// before idle ones). The paper's constraint applies: a desired processor
// is granted only when it is not doing useful work, never by preempting
// its current task. The returned slice is scratch owned by the State,
// valid until the next Desired call.
func (s *State) Desired(j int) []DesiredProc {
	if s.aff == nil {
		return nil
	}
	s.desiredScratch = s.aff.AppendDesired(s.desiredScratch[:0], j)
	return s.desiredScratch
}

// LastTask returns the last task to have run on processor p, and whether
// that task is resumable: not active elsewhere, and its job has work for
// it (allocation rule A.1's precondition). A processor with no history
// answers NoTask, false.
func (s *State) LastTask(p int) (TaskRef, bool) {
	if s.aff == nil {
		return NoTask, false
	}
	return s.aff.LastTask(p)
}

// DesiredProc is a desired processor and the task that wants it.
type DesiredProc struct {
	Proc int
	Task TaskRef
}

// NewState allocates a State sized for the given processor and job counts.
func NewState(procs, jobs int) *State {
	s := &State{}
	s.Reset(procs, jobs)
	return s
}

// Reset re-sizes the snapshot for a new run's processor and job counts and
// restores every field to its initial value, retaining allocated capacity
// (including the query scratch) so one State can serve many simulation
// runs. A reset State is indistinguishable from a freshly constructed one:
// it has no Affinity source until SetAffinity installs one.
func (s *State) Reset(procs, jobs int) {
	s.Procs = procs
	s.Active = resize(s.Active, jobs)
	s.Demand = resize(s.Demand, jobs)
	s.Alloc = resize(s.Alloc, jobs)
	s.Credit = resize(s.Credit, jobs)
	s.MaxPar = resize(s.MaxPar, jobs)
	s.ProcJob = resize(s.ProcJob, procs)
	s.ProcYield = resize(s.ProcYield, procs)
	s.aff = nil
	for j := range jobs {
		s.Active[j] = false
		s.Demand[j] = 0
		s.Alloc[j] = 0
		s.Credit[j] = 0
		s.MaxPar[j] = 0
	}
	for p := 0; p < procs; p++ {
		s.ProcJob[p] = -1
		s.ProcYield[p] = false
	}
}

// resize returns s with length n, retaining capacity where possible.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// NumJobs returns the number of job slots (active or not).
func (s *State) NumJobs() int { return len(s.Active) }

// ActiveJobs returns the IDs of jobs currently in the system. The returned
// slice is scratch owned by the State, valid until the next ActiveJobs call.
func (s *State) ActiveJobs() []int {
	out := s.activeScratch[:0]
	for j, a := range s.Active {
		if a {
			out = append(out, j)
		}
	}
	s.activeScratch = out
	return out
}

// NumActive returns the number of jobs currently in the system.
func (s *State) NumActive() int {
	n := 0
	for _, a := range s.Active {
		if a {
			n++
		}
	}
	return n
}

// FairShare returns the equal-division share of processors per active job
// (zero when no job is active).
func (s *State) FairShare() float64 {
	n := s.NumActive()
	if n == 0 {
		return 0
	}
	return float64(s.Procs) / float64(n)
}

// Requesters returns active jobs whose demand exceeds their allocation,
// ordered by descending credit (ties broken by lower job ID, keeping the
// simulation deterministic). The returned slice is scratch owned by the
// State, valid until the next Requesters call.
func (s *State) Requesters() []int {
	out := s.reqScratch[:0]
	for j := range s.Active {
		if s.Active[j] && s.Demand[j] > s.Alloc[j] {
			out = append(out, j)
		}
	}
	s.reqScratch = out
	// Insertion sort by (credit desc, id asc): requester lists are tiny.
	for i := 1; i < len(out); i++ {
		for k := i; k > 0; k-- {
			a, b := out[k-1], out[k]
			if s.Credit[b] > s.Credit[a] {
				out[k-1], out[k] = b, a
			} else {
				break
			}
		}
	}
	return out
}

// UnassignedProcs returns processors not assigned to any job, in index
// order (allocation rule D.1's supply). The returned slice is scratch owned
// by the State, valid until the next UnassignedProcs call.
func (s *State) UnassignedProcs() []int {
	out := s.unassignedScratch[:0]
	for p, j := range s.ProcJob {
		if j == -1 {
			out = append(out, p)
		}
	}
	s.unassignedScratch = out
	return out
}

// YieldingProcs returns processors marked willing-to-yield, in index order
// (allocation rule D.2's supply). The returned slice is scratch owned by
// the State, valid until the next YieldingProcs call.
func (s *State) YieldingProcs() []int {
	out := s.yieldScratch[:0]
	for p := range s.ProcJob {
		if s.ProcJob[p] != -1 && s.ProcYield[p] {
			out = append(out, p)
		}
	}
	s.yieldScratch = out
	return out
}

// LargestAllocJob returns the active job with the most processors,
// excluding 'except' (pass -1 to exclude none); ties break to the lower
// job ID. It returns -1 if no active job holds a processor.
func (s *State) LargestAllocJob(except int) int {
	best, bestAlloc := -1, 0
	for j := range s.Active {
		if !s.Active[j] || j == except {
			continue
		}
		if s.Alloc[j] > bestAlloc {
			best, bestAlloc = j, s.Alloc[j]
		}
	}
	return best
}

// ProcsOf returns the processors currently assigned to job j, in index
// order. The returned slice is scratch owned by the State, valid until the
// next ProcsOf call.
func (s *State) ProcsOf(j int) []int {
	out := s.procsOfScratch[:0]
	for p, owner := range s.ProcJob {
		if owner == j {
			out = append(out, p)
		}
	}
	s.procsOfScratch = out
	return out
}

// Assign provisionally applies a decision to the snapshot, so a policy's
// later logic observes its earlier choices within one Rebalance call.
func (s *State) Assign(proc, job int) {
	old := s.ProcJob[proc]
	if old == job {
		return
	}
	if old >= 0 {
		s.Alloc[old]--
	}
	s.ProcJob[proc] = job
	s.ProcYield[proc] = false
	if job >= 0 {
		s.Alloc[job]++
	}
}

// Policy is a processor allocation discipline.
//
// A Policy value carries per-run state (for example, a rotation cursor) and
// must not be shared between simulation runs.
type Policy interface {
	// Name returns the discipline's name as used in the paper.
	Name() string
	// Rebalance inspects the snapshot and returns processor reassignments.
	// arg is the trigger's subject (job or processor index, -1 if none).
	Rebalance(s *State, trig Trigger, arg int) []Decision
	// YieldDelay returns how long an idle processor is held by its job
	// before being offered for reallocation (0 = offered immediately).
	YieldDelay() simtime.Duration
	// Quantum returns the time slice for quantum-driven policies
	// (0 = event-driven only).
	Quantum() simtime.Duration
	// PrefersAffinity reports whether, when a processor is handed to a
	// job, the job's runtime should resume the task that last ran on that
	// processor (rather than an arbitrary suspended task). Affinity-blind
	// policies answer false, which keeps their measured %affinity at
	// chance level as in the paper's Table 3.
	PrefersAffinity() bool
}
