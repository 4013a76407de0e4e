package core

import (
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/simtime"
)

// state builds a snapshot with the given per-job (active, demand, alloc)
// triples on a machine with procs processors; processors are assigned to
// jobs round-robin up to each job's alloc.
func state(procs int, jobs [][3]int) *alloc.State {
	s := alloc.NewState(procs, len(jobs))
	p := 0
	for j, row := range jobs {
		s.Active[j] = row[0] != 0
		s.Demand[j] = row[1]
		s.MaxPar[j] = 1 << 20
		for k := 0; k < row[2]; k++ {
			s.ProcJob[p] = j
			s.Alloc[j]++
			p++
		}
	}
	return s
}

// history is a fixed alloc.Affinity source: each job's desired processors,
// and each processor's last task, all resumable.
type history struct {
	desired map[int][]alloc.DesiredProc
	last    map[int]alloc.TaskRef
}

func (h *history) AppendDesired(buf []alloc.DesiredProc, j int) []alloc.DesiredProc {
	return append(buf, h.desired[j]...)
}

func (h *history) LastTask(p int) (alloc.TaskRef, bool) {
	if t, ok := h.last[p]; ok {
		return t, true
	}
	return alloc.NoTask, false
}

// lastTask installs a history whose only entry is proc's resumable last
// task.
func lastTask(s *alloc.State, proc int, task alloc.TaskRef) {
	s.SetAffinity(&history{last: map[int]alloc.TaskRef{proc: task}})
}

// desires installs a history whose only entry is job j's desired list.
func desires(s *alloc.State, j int, dps ...alloc.DesiredProc) {
	s.SetAffinity(&history{desired: map[int][]alloc.DesiredProc{j: dps}})
}

func apply(s *alloc.State, decs []alloc.Decision) {
	// Decisions were already applied provisionally by the policies via
	// s.Assign; this helper just sanity-checks them.
	for _, d := range decs {
		if d.Proc < 0 || d.Proc >= s.Procs {
			panic("decision out of range")
		}
	}
}

func TestPolicyIdentities(t *testing.T) {
	cases := []struct {
		pol      alloc.Policy
		name     string
		affinity bool
		delay    simtime.Duration
		quantum  simtime.Duration
	}{
		{NewEquipartition(), "Equipartition", true, 0, 0},
		{NewDynamic(), "Dynamic", false, 0, 0},
		{NewDynAff(), "Dyn-Aff", true, 0, 0},
		{NewDynAffNoPri(), "Dyn-Aff-NoPri", true, 0, 0},
		{NewDynAffDelay(), "Dyn-Aff-Delay", true, DefaultYieldDelay, 0},
		{NewTimeShare(0), "TimeShare-RR", false, 0, DefaultQuantum},
	}
	for _, c := range cases {
		if c.pol.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.pol.Name(), c.name)
		}
		if c.pol.PrefersAffinity() != c.affinity {
			t.Errorf("%s PrefersAffinity = %v", c.name, c.pol.PrefersAffinity())
		}
		if c.pol.YieldDelay() != c.delay {
			t.Errorf("%s YieldDelay = %v", c.name, c.pol.YieldDelay())
		}
		if c.pol.Quantum() != c.quantum {
			t.Errorf("%s Quantum = %v", c.name, c.pol.Quantum())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range PolicyNames() {
		if p, ok := ByName(name); !ok || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, ok)
		}
	}
	// One spelling per policy: the lowercase names ByName once also
	// took would give a campaign a second cache identity.
	for _, name := range []string{"bogus", "equi", "dynamic", "dynaff", "dynaffnopri", "dynaffdelay", "timeshare", "timeshareaff"} {
		if _, ok := ByName(name); ok {
			t.Errorf("ByName(%q) accepted", name)
		}
	}
}

func TestEquipartitionSplitsEqually(t *testing.T) {
	pol := NewEquipartition()
	s := state(16, [][3]int{{1, 100, 0}, {1, 100, 0}})
	decs := pol.Rebalance(s, alloc.TrigArrival, 1)
	apply(s, decs)
	if s.Alloc[0] != 8 || s.Alloc[1] != 8 {
		t.Fatalf("allocs = %v, want 8/8", s.Alloc)
	}
}

func TestEquipartitionRespectsMaxParallelism(t *testing.T) {
	pol := NewEquipartition()
	s := state(16, [][3]int{{1, 100, 0}, {1, 100, 0}})
	s.MaxPar[0] = 3 // job 0 can never use more than 3
	decs := pol.Rebalance(s, alloc.TrigArrival, 1)
	apply(s, decs)
	if s.Alloc[0] != 3 || s.Alloc[1] != 13 {
		t.Fatalf("allocs = %v, want 3/13", s.Alloc)
	}
}

func TestEquipartitionOnlyReallocatesOnArrivalCompletion(t *testing.T) {
	pol := NewEquipartition()
	s := state(16, [][3]int{{1, 100, 12}, {1, 100, 4}})
	for _, trig := range []alloc.Trigger{alloc.TrigDemandUp, alloc.TrigProcFree, alloc.TrigQuantum} {
		if decs := pol.Rebalance(s, trig, 0); len(decs) != 0 {
			t.Errorf("Equipartition reallocated on %v", trig)
		}
	}
	// But rebalances on completion.
	s.Active[1] = false
	decs := pol.Rebalance(s, alloc.TrigCompletion, 1)
	apply(s, decs)
	if s.Alloc[0] != 16 {
		t.Errorf("after completion alloc = %v", s.Alloc)
	}
}

func TestEquipartitionReleasesAllWhenEmpty(t *testing.T) {
	pol := NewEquipartition()
	s := state(4, [][3]int{{0, 0, 3}})
	decs := pol.Rebalance(s, alloc.TrigCompletion, 0)
	if len(decs) != 3 {
		t.Fatalf("released %d procs, want 3", len(decs))
	}
	for _, d := range decs {
		if d.Job != -1 {
			t.Errorf("release decision assigned job %d", d.Job)
		}
	}
}

func TestDynamicServesFromUnassignedFirst(t *testing.T) {
	pol := NewDynamic()
	s := state(8, [][3]int{{1, 4, 0}})
	decs := pol.Rebalance(s, alloc.TrigArrival, 0)
	if len(decs) != 4 {
		t.Fatalf("decisions = %v, want 4 assignments", decs)
	}
	if s.Alloc[0] != 4 {
		t.Fatalf("alloc = %d", s.Alloc[0])
	}
}

func TestDynamicUsesYieldingProcs(t *testing.T) {
	pol := NewDynamic()
	s := state(4, [][3]int{{1, 4, 4}, {1, 2, 0}})
	s.ProcYield[2] = true
	s.ProcYield[3] = true
	decs := pol.Rebalance(s, alloc.TrigProcFree, 2)
	apply(s, decs)
	if s.Alloc[1] != 2 || s.ProcJob[2] != 1 || s.ProcJob[3] != 1 {
		t.Fatalf("yielding procs not transferred: alloc=%v procjob=%v", s.Alloc, s.ProcJob)
	}
}

func TestDynamicD3Equity(t *testing.T) {
	pol := NewDynamic()
	// Job 0 holds everything and is working; job 1 arrives needing 8.
	s := state(16, [][3]int{{1, 100, 16}, {1, 8, 0}})
	decs := pol.Rebalance(s, alloc.TrigArrival, 1)
	apply(s, decs)
	// Equity: preempt until within one processor.
	if s.Alloc[1] < 7 || s.Alloc[0] > 9 {
		t.Fatalf("D.3 equity failed: allocs = %v", s.Alloc)
	}
}

func TestDynamicD3RespectsPriority(t *testing.T) {
	pol := NewDynamic()
	s := state(16, [][3]int{{1, 100, 16}, {1, 8, 0}})
	s.Credit[0] = 10 // victim has far more credit: cannot be preempted
	s.Credit[1] = 0
	decs := pol.Rebalance(s, alloc.TrigDemandUp, 1)
	if len(decs) != 0 {
		t.Fatalf("preempted from a higher-priority job: %v", decs)
	}
}

func TestDynamicCreditSpendingBurst(t *testing.T) {
	pol := NewDynamic()
	// Requester has a large credit surplus: may push the victim to half
	// its fair share (fair = 8, floor = 4).
	s := state(16, [][3]int{{1, 100, 16}, {1, 16, 0}})
	s.Credit[1] = creditSpendThreshold + 1
	decs := pol.Rebalance(s, alloc.TrigDemandUp, 1)
	apply(s, decs)
	if s.Alloc[0] != 4 || s.Alloc[1] != 12 {
		t.Fatalf("burst allocs = %v, want 4/12", s.Alloc)
	}
}

func TestDynAffNoPriNeverPreempts(t *testing.T) {
	pol := NewDynAffNoPri()
	s := state(16, [][3]int{{1, 100, 16}, {1, 8, 0}})
	decs := pol.Rebalance(s, alloc.TrigDemandUp, 1)
	if len(decs) != 0 {
		t.Fatalf("Dyn-Aff-NoPri preempted: %v", decs)
	}
}

func TestDynAffA1GivesProcToLastTask(t *testing.T) {
	pol := NewDynAff()
	// Proc 3 yielded by job 0; its last task belongs to job 1, which wants
	// more processors.
	s := state(4, [][3]int{{1, 4, 4}, {1, 2, 0}})
	s.ProcYield[3] = true
	lastTask(s, 3, alloc.TaskRef{Job: 1, Task: 0})
	decs := pol.Rebalance(s, alloc.TrigProcFree, 3)
	apply(s, decs)
	if s.ProcJob[3] != 1 {
		t.Fatalf("A.1 did not return proc to its last task's job: %v", decs)
	}
	if !decs[0].HasTask || decs[0].Task != (alloc.TaskRef{Job: 1, Task: 0}) {
		t.Fatalf("A.1 grant not task-targeted: %+v", decs[0])
	}
}

func TestDynAffA1DefersToPriority(t *testing.T) {
	pol := NewDynAff()
	// Last task's job (1) has much lower credit than requester job 2.
	s := state(4, [][3]int{{1, 4, 4}, {1, 2, 0}, {1, 2, 0}})
	s.ProcYield[3] = true
	lastTask(s, 3, alloc.TaskRef{Job: 1, Task: 0})
	s.Credit[1] = 0
	s.Credit[2] = 10
	decs := pol.Rebalance(s, alloc.TrigProcFree, 3)
	apply(s, decs)
	if s.ProcJob[3] != 2 {
		t.Fatalf("A.1 overrode a higher-priority requester: proc 3 -> job %d", s.ProcJob[3])
	}
}

func TestDynAffNoPriA1IgnoresPriority(t *testing.T) {
	pol := NewDynAffNoPri()
	s := state(4, [][3]int{{1, 4, 4}, {1, 2, 0}, {1, 2, 0}})
	s.ProcYield[3] = true
	lastTask(s, 3, alloc.TaskRef{Job: 1, Task: 0})
	s.Credit[1] = 0
	s.Credit[2] = 10
	decs := pol.Rebalance(s, alloc.TrigProcFree, 3)
	apply(s, decs)
	if s.ProcJob[3] != 1 {
		t.Fatalf("NoPri A.1 should ignore priority: proc 3 -> job %d", s.ProcJob[3])
	}
}

func TestDynAffA2PrefersDesiredProcessor(t *testing.T) {
	pol := NewDynAff()
	// Four unassigned procs; job 0 desires proc 3 for its task 2.
	s := state(4, [][3]int{{1, 2, 0}})
	desires(s, 0, alloc.DesiredProc{Proc: 3, Task: alloc.TaskRef{Job: 0, Task: 2}})
	decs := pol.Rebalance(s, alloc.TrigDemandUp, 0)
	apply(s, decs)
	if len(decs) == 0 || decs[0].Proc != 3 {
		t.Fatalf("A.2 did not prefer desired processor: %v", decs)
	}
	if !decs[0].HasTask || decs[0].Task.Task != 2 {
		t.Fatalf("A.2 grant not task-targeted: %+v", decs[0])
	}
	// The second grant is untargeted: some other supply proc, no task.
	if len(decs) < 2 || decs[1].Proc == 3 || decs[1].HasTask {
		t.Fatalf("second grant wrong: %+v", decs)
	}
}

func TestDynamicIgnoresDesired(t *testing.T) {
	pol := NewDynamic()
	s := state(4, [][3]int{{1, 1, 0}})
	desires(s, 0, alloc.DesiredProc{Proc: 3, Task: alloc.TaskRef{Job: 0, Task: 0}})
	decs := pol.Rebalance(s, alloc.TrigDemandUp, 0)
	if len(decs) == 0 || decs[0].HasTask {
		t.Fatalf("Dynamic grant should be untargeted: %v", decs)
	}
}

// noDesired is an alloc.Affinity source that answers LastTask from its
// history but fails the test when asked for desired processors.
type noDesired struct {
	t *testing.T
	history
}

func (n *noDesired) AppendDesired(buf []alloc.DesiredProc, j int) []alloc.DesiredProc {
	n.t.Errorf("asked for job %d's desired processors with no idle supply", j)
	return buf
}

// TestNoSupplySkipsDesired: when no processor is unassigned or willing to
// yield, an affinity policy's requests go straight to rule D.3 — the
// decisions Dynamic makes on the same snapshot, or none without the
// priority scheme — and never ask for desired processors. Rule A.1 still
// grants the freed processor first, and the supply that grant empties is
// what the requests see.
func TestNoSupplySkipsDesired(t *testing.T) {
	for _, name := range []string{"Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri"} {
		// Job 0 holds all 16 processors and works on every one; job 1
		// requests 8.
		pol, _ := ByName(name)
		s := state(16, [][3]int{{1, 100, 16}, {1, 8, 0}})
		s.SetAffinity(&noDesired{t: t})
		got := pol.Rebalance(s, alloc.TrigDemandUp, 1)
		if name == "Dyn-Aff-NoPri" {
			if len(got) != 0 {
				t.Errorf("%s preempted: %+v", name, got)
			}
		} else if want := NewDynamic().Rebalance(state(16, [][3]int{{1, 100, 16}, {1, 8, 0}}), alloc.TrigDemandUp, 1); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s D.3 decisions = %+v, want Dynamic's %+v", name, got, want)
		}

		// Processor 3 yields; A.1 returns it to its last task's job 1,
		// which wants one more processor and must take it by D.3.
		pol, _ = ByName(name)
		s = state(4, [][3]int{{1, 4, 4}, {1, 2, 0}})
		s.ProcYield[3] = true
		last := alloc.TaskRef{Job: 1, Task: 0}
		s.SetAffinity(&noDesired{t: t, history: history{last: map[int]alloc.TaskRef{3: last}}})
		got = pol.Rebalance(s, alloc.TrigProcFree, 3)
		want := []alloc.Decision{{Proc: 3, Job: 1, Task: last, HasTask: true}, {Proc: 1, Job: 1, Task: alloc.NoTask}}
		if name == "Dyn-Aff-NoPri" {
			want = want[:1]
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s A.1 then D.3 = %+v, want %+v", name, got, want)
		}
	}
}

func TestTimeShareRotates(t *testing.T) {
	pol := NewTimeShare(DefaultQuantum)
	s := state(4, [][3]int{{1, 10, 0}, {1, 10, 0}})
	decs := pol.Rebalance(s, alloc.TrigArrival, 0)
	apply(s, decs)
	first := append([]int(nil), s.ProcJob...)
	decs = pol.Rebalance(s, alloc.TrigQuantum, -1)
	apply(s, decs)
	same := 0
	for p := range first {
		if first[p] == s.ProcJob[p] {
			same++
		}
	}
	if same == len(first) {
		t.Fatal("quantum expiry did not rotate assignments")
	}
	// Ignores other triggers.
	if decs := pol.Rebalance(s, alloc.TrigDemandUp, 0); len(decs) != 0 {
		t.Error("TimeShare acted on demand-up")
	}
	// Releases everything when no job is active.
	s.Active[0], s.Active[1] = false, false
	decs = pol.Rebalance(s, alloc.TrigCompletion, 0)
	for _, d := range decs {
		if d.Job != -1 {
			t.Error("release decision with a job")
		}
	}
}

func TestTimeShareDefaultQuantum(t *testing.T) {
	if NewTimeShare(-5).Quantum() != DefaultQuantum {
		t.Error("negative quantum not defaulted")
	}
	if NewTimeShare(simtime.Second).Quantum() != simtime.Second {
		t.Error("explicit quantum ignored")
	}
}

func TestTimeShareAff(t *testing.T) {
	pol := NewTimeShareAff(DefaultQuantum)
	if pol.Name() != "TimeShare-Aff" {
		t.Errorf("Name = %q", pol.Name())
	}
	if !pol.PrefersAffinity() {
		t.Error("TimeShare-Aff must prefer affinity")
	}
	if p, ok := ByName("TimeShare-Aff"); !ok || !p.PrefersAffinity() {
		t.Error("ByName(TimeShare-Aff) wrong")
	}
	// It still rotates like the base policy.
	s := state(4, [][3]int{{1, 10, 0}, {1, 10, 0}})
	decs := pol.Rebalance(s, alloc.TrigArrival, 0)
	if len(decs) != 4 {
		t.Fatalf("arrival decisions = %d", len(decs))
	}
}
