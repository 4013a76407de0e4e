package workload

import (
	"fmt"

	"repro/internal/simtime"
)

// ThreadState tracks one thread's lifecycle within a running job.
type ThreadState int

// Thread lifecycle states.
const (
	ThreadBlocked ThreadState = iota // predecessors outstanding
	ThreadReady                      // runnable, not attached to a task
	ThreadRunning                    // attached to a task (running or preempted with it)
	ThreadDone
)

// Job is one executing instance of an App: the dependence graph plus the
// mutable ready-set bookkeeping the scheduler consumes.
type Job struct {
	// ID is the job's index within its simulation run.
	ID int
	// App is the static program description.
	App App

	state     []ThreadState
	preds     []int // outstanding predecessor counts
	ready     []ThreadID
	remaining []simtime.Duration // remaining compute per thread
	attached  int                // threads in ThreadRunning
	finished  int

	// readyBuf backs the ready window; Attach advances the window's head
	// while Complete appends at its tail, and since each thread becomes
	// ready exactly once a buffer of NumThreads entries covers a whole run.
	readyBuf []ThreadID
	// newlyScratch backs Complete's return value.
	newlyScratch []ThreadID
}

// Reset initialises j in place as a fresh instance of app with the given
// id, reusing j's internal slices: a zero Job is ready for Reset, and
// long-lived runners recycle Job structures across simulation runs
// without allocating.
func (j *Job) Reset(id int, app App) error {
	if err := app.Validate(); err != nil {
		return err
	}
	n := app.Graph.NumThreads()
	j.ID = id
	j.App = app
	j.state = sized(j.state, n)
	j.preds = sized(j.preds, n)
	j.remaining = sized(j.remaining, n)
	if cap(j.readyBuf) < n {
		j.readyBuf = make([]ThreadID, n)
	}
	j.ready = j.readyBuf[:0]
	j.attached = 0
	j.finished = 0
	for t, np := range app.Graph.npreds {
		j.state[t] = ThreadBlocked
		j.preds[t] = int(np)
	}
	copy(j.remaining, app.Graph.work)
	for _, r := range app.Graph.roots {
		j.state[r] = ThreadReady
		j.ready = append(j.ready, r)
	}
	return nil
}

// sized returns s with length n, reusing its backing array when possible.
func sized[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// ReadyCount returns the number of runnable, unattached threads.
func (j *Job) ReadyCount() int { return len(j.ready) }

// AttachedCount returns the number of threads attached to tasks.
func (j *Job) AttachedCount() int { return j.attached }

// Demand returns the job's instantaneous processor demand: threads already
// attached to tasks plus runnable threads awaiting one. This is the value
// the job "reflects to the allocator via shared memory" under the Dynamic
// policies.
func (j *Job) Demand() int { return j.attached + len(j.ready) }

// Done reports whether every thread has completed.
func (j *Job) Done() bool { return j.finished == len(j.state) }

// ThreadStateOf returns thread id's current state.
func (j *Job) ThreadStateOf(id ThreadID) ThreadState { return j.state[id] }

// Remaining returns thread id's outstanding compute.
func (j *Job) Remaining(id ThreadID) simtime.Duration { return j.remaining[id] }

// Attach pops a ready thread and marks it attached to a task. It returns
// false when no thread is ready.
func (j *Job) Attach() (ThreadID, bool) {
	if len(j.ready) == 0 {
		return 0, false
	}
	id := j.ready[0]
	j.ready = j.ready[1:]
	j.state[id] = ThreadRunning
	j.attached++
	return id, true
}

// Progress records that the attached thread id executed d of compute. It
// returns the remaining compute.
func (j *Job) Progress(id ThreadID, d simtime.Duration) simtime.Duration {
	if j.state[id] != ThreadRunning {
		panic(fmt.Sprintf("workload: Progress on thread %d in state %v", id, j.state[id]))
	}
	j.remaining[id] -= d
	if j.remaining[id] < 0 {
		j.remaining[id] = 0
	}
	return j.remaining[id]
}

// Complete marks the attached thread id finished and returns the threads
// that became ready as a result. The returned slice is scratch owned by the
// job and is only valid until the next Complete call.
func (j *Job) Complete(id ThreadID) []ThreadID {
	if j.state[id] != ThreadRunning {
		panic(fmt.Sprintf("workload: Complete on thread %d in state %v", id, j.state[id]))
	}
	j.state[id] = ThreadDone
	j.attached--
	j.finished++
	newly := j.newlyScratch[:0]
	for _, s := range j.App.Graph.succsOf(id) {
		j.preds[s]--
		if j.preds[s] == 0 {
			j.state[s] = ThreadReady
			j.ready = append(j.ready, s)
			newly = append(newly, s)
		}
	}
	j.newlyScratch = newly
	return newly
}
