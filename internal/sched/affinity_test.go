package sched

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cachemodel"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/parallel"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// eagerDesired rebuilds job j's desired-processor list the way the engine
// copied it into every snapshot before the list became a query: preempted
// tasks with a history, then, when the job has ready threads, idle tasks
// with a history; nothing for a job not in the system.
func eagerDesired(j *jobRT) []alloc.DesiredProc {
	var out []alloc.DesiredProc
	if !j.arrived || j.done {
		return out
	}
	for _, t := range j.tasks {
		if t.state == taskPreempted && t.lastProc >= 0 {
			out = append(out, alloc.DesiredProc{Proc: t.lastProc, Task: t.ref})
		}
	}
	if j.job.ReadyCount() > 0 {
		for _, t := range j.tasks {
			if t.state == taskIdle && t.lastProc >= 0 {
				out = append(out, alloc.DesiredProc{Proc: t.lastProc, Task: t.ref})
			}
		}
	}
	return out
}

// eagerLastTask rebuilds a processor's last task and rule A.1's
// resumability precondition the way the engine copied them into every
// snapshot.
func eagerLastTask(e *engine, p *procRT) (alloc.TaskRef, bool) {
	resumable := false
	if p.lastTask.Valid() {
		lj := e.jobs[p.lastTask.Job]
		if lj.arrived && !lj.done {
			lt := lj.tasks[p.lastTask.Task]
			resumable = lt.state == taskPreempted || (lt.state == taskIdle && lj.job.ReadyCount() > 0)
		}
	}
	return p.lastTask, resumable
}

// fastMixApps instantiates a paper mix at the campaigns' fast scale
// (application shrink factor 4), GRAVITY jittered by seed.
func fastMixApps(m workload.Mix, seed uint64) []workload.App {
	var out []workload.App
	for i := 0; i < m.MVA; i++ {
		out = append(out, workload.MVASized(12, 180*simtime.Millisecond))
	}
	for i := 0; i < m.Matrix; i++ {
		out = append(out, workload.MatrixSized(10, 850*simtime.Millisecond/4))
	}
	for i := 0; i < m.Gravity; i++ {
		out = append(out, workload.GravitySized(7, 128, 200*simtime.Millisecond,
			20*simtime.Millisecond, seed+uint64(i)*0x9e3779b9))
	}
	return out
}

// TestAffinityQueriesMatchEagerSnapshot pins the on-demand affinity
// queries against the eager copies they replaced. At every policy event of
// runs over seeds × every policy × 8, 16 and 24 processors, each job's
// Desired list and every processor's LastTask answer (the trigger
// processor's among them) must equal the eager rebuild. The seeds are those
// of the first and fifth replications of a default-seeded fast compare
// campaign over the six paper mixes. Runs that end in the known
// Dyn-Aff-Delay stranding deadlock (mix 3's fifth replication at 16
// processors is one) are audited up to the point the event queue drains,
// and counted.
func TestAffinityQueriesMatchEagerSnapshot(t *testing.T) {
	var audits, desired, resumable, deadlocks, runs int
	for _, procs := range []int{8, 16, 24} {
		for _, mix := range workload.Mixes() {
			for _, rep := range []uint64{0, 4} {
				for _, name := range core.PolicyNames() {
					seed := parallel.CellSeed(1, uint64(mix.Number), rep)
					pol, _ := core.ByName(name)
					mc := mc16()
					mc.Processors = procs
					cfg := Config{Machine: mc, Policy: pol, Apps: fastMixApps(mix, seed), Seed: seed}
					if err := cfg.Validate(); err != nil {
						t.Fatal(err)
					}
					cfg = cfg.withDefaults()
					model, err := cachemodel.NewFootprint(procs, cfg.Machine.Cache.Lines())
					if err != nil {
						t.Fatal(err)
					}
					e := &engine{q: &eventq.Queue{}}
					if err := e.reset(cfg, model); err != nil {
						t.Fatal(err)
					}
					e.audit = func(trig alloc.Trigger, arg int) {
						audits++
						for _, j := range e.jobs {
							want := eagerDesired(j)
							got := e.st.Desired(j.id)
							if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
								t.Fatalf("%s P=%d seed %d %v(%d): Desired(%d) = %v, eager %v",
									name, procs, seed, trig, arg, j.id, got, want)
							}
							desired += len(want)
						}
						for _, p := range e.procs {
							wantTask, wantOK := eagerLastTask(e, p)
							gotTask, gotOK := e.st.LastTask(p.id)
							if gotTask != wantTask || gotOK != wantOK {
								t.Fatalf("%s P=%d seed %d %v(%d): LastTask(%d) = %v, %v; eager %v, %v",
									name, procs, seed, trig, arg, p.id, gotTask, gotOK, wantTask, wantOK)
							}
							if wantOK {
								resumable++
							}
						}
					}
					runs++
					if _, err := e.run(); err != nil {
						if !strings.Contains(err.Error(), "deadlock") {
							t.Fatalf("%s P=%d seed %d: %v", name, procs, seed, err)
						}
						deadlocks++
					}
				}
			}
		}
	}
	t.Logf("%d runs (%d deadlocked), %d policy events, %d desired entries, %d resumable last tasks",
		runs, deadlocks, audits, desired, resumable)
	if audits == 0 || desired == 0 || resumable == 0 {
		t.Errorf("audit saw nothing to compare: %d events, %d desired, %d resumable", audits, desired, resumable)
	}
}
