// Package job implements HolDCSim's job and task model (paper Sec. III-C).
//
// Each job is a directed acyclic graph (DAG) G(V, E) of tasks. A link from
// task i to task r means i must finish and communicate its result (E's
// data-transfer size D, in bytes) to r's server before r may start —
// spatial and temporal inter-dependence in the paper's terms. A job
// finishes when all of its tasks finish.
package job

import (
	"fmt"

	"holdcsim/internal/simtime"
)

// ID uniquely identifies a job within a simulation run.
type ID int64

// TaskState is the lifecycle of a task.
type TaskState int

// Task lifecycle states.
const (
	TaskBlocked  TaskState = iota // waiting on parents or their data
	TaskReady                     // all inputs available, not yet placed
	TaskQueued                    // placed on a server, waiting for a core
	TaskRunning                   // executing on a core
	TaskFinished                  // execution complete
	TaskLost                      // retracted by a failure; will never finish
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case TaskBlocked:
		return "blocked"
	case TaskReady:
		return "ready"
	case TaskQueued:
		return "queued"
	case TaskRunning:
		return "running"
	case TaskFinished:
		return "finished"
	case TaskLost:
		return "lost"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// Edge is a dependency link: the parent's output of Bytes must reach the
// child's server before the child becomes ready.
type Edge struct {
	From  *Task
	To    *Task
	Bytes int64 // data-transfer size D_l over the link
}

// Task is one executable unit of a job. Size is the nominal service time
// on a 1.0-speed core; heterogeneous cores and DVFS scale it.
type Task struct {
	Job   *Job
	Index int          // position within Job.Tasks
	Size  simtime.Time // service-time requirement w_v at nominal speed

	// Kind tags the task for server specialization (e.g. "app", "db").
	// Empty means any server may run it.
	Kind string

	// Intensity models computation intensiveness (Sec. III-A): the
	// fraction of the task that scales with core frequency. 1 = fully
	// compute-bound; 0 = fully memory/IO-bound (frequency-insensitive).
	Intensity float64

	In  []*Edge // edges from parents
	Out []*Edge // edges to children

	State TaskState

	// Placement and timing, filled in during simulation.
	ServerID    int
	ReadyAt     simtime.Time
	StartAt     simtime.Time
	FinishAt    simtime.Time
	pendingDeps int // parents (or their transfers) not yet satisfied
}

// Name returns a stable human-readable identifier.
func (t *Task) Name() string { return fmt.Sprintf("j%d/t%d", t.Job.ID, t.Index) }

// IsRoot reports whether the task has no parents.
func (t *Task) IsRoot() bool { return len(t.In) == 0 }

// SatisfyDep marks one input as satisfied (parent finished and its data
// arrived) and reports whether the task became ready.
func (t *Task) SatisfyDep() bool {
	if t.pendingDeps <= 0 {
		panic("job: SatisfyDep underflow on " + t.Name())
	}
	t.pendingDeps--
	return t.pendingDeps == 0
}

// ServiceTime reports the execution time on a core running at the given
// speed ratio (1.0 = nominal). Only the Intensity-weighted portion scales
// with speed.
func (t *Task) ServiceTime(speed float64) simtime.Time {
	if speed <= 0 {
		panic("job: non-positive core speed")
	}
	scaled := t.Size.Seconds() * (t.Intensity/speed + (1 - t.Intensity))
	return simtime.FromSeconds(scaled)
}

// Job is a user service request expanded into a task DAG.
type Job struct {
	ID       ID
	Tasks    []*Task
	ArriveAt simtime.Time
	FinishAt simtime.Time
	finished int     // count of finished tasks
	lost     bool    // retracted by a failure; will never complete
	pooled   bool    // on a Pool's free list
	order    []*Task // topological order, kept by Seal
}

// New returns an empty job arriving at the given time.
func New(id ID, arriveAt simtime.Time) *Job {
	return &Job{ID: id, ArriveAt: arriveAt}
}

// Pool is one simulation's free list of finished jobs (never shared
// between runs). Get hands a job out again empty but with its storage —
// task and edge objects, every list's capacity — which AddTask and Link
// reuse, so a stream of same-shaped jobs allocates nothing. A nil *Pool
// allocates every job and keeps none.
type Pool struct{ free []*Job }

// Get returns an empty job arriving at the given time: a recycled one
// if the pool holds any, else a new one.
func (p *Pool) Get(id ID, arriveAt simtime.Time) *Job {
	if p == nil || len(p.free) == 0 {
		return New(id, arriveAt)
	}
	n := len(p.free) - 1
	j := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	j.ID, j.ArriveAt, j.FinishAt, j.finished, j.pooled = id, arriveAt, 0, 0, false
	j.Tasks, j.order = j.Tasks[:0], j.order[:0]
	return j
}

// Put offers a job for reuse. It only records the pointer: j stays
// readable until Get hands it out, so the event that finished a job can
// go on reading it. Only finished jobs are kept — a lost or unfinished
// one may still be named by a transfer in flight or a parked task.
func (p *Pool) Put(j *Job) {
	if p == nil || j.lost || j.pooled || !j.Done() {
		return
	}
	j.pooled = true
	p.free = append(p.free, j)
}

// AddTask appends a task with the given nominal size and kind, returning
// it. Intensity defaults to 1 (fully compute-bound).
func (j *Job) AddTask(size simtime.Time, kind string) *Task {
	n := len(j.Tasks)
	if n < cap(j.Tasks) && j.Tasks[:n+1][n] != nil {
		// A recycled job's storage: the task keeps its edge lists'
		// capacity, whose spare slots hold the edges Link reuses.
		j.Tasks = j.Tasks[:n+1]
		t := j.Tasks[n]
		*t = Task{Job: j, Index: n, Size: size, Kind: kind, Intensity: 1, In: t.In[:0], Out: t.Out[:0]}
		return t
	}
	t := &Task{Job: j, Index: n, Size: size, Kind: kind, Intensity: 1}
	j.Tasks = append(j.Tasks, t)
	return t
}

// Link adds a dependency edge from parent to child carrying bytes of
// result data. Both tasks must belong to this job.
func (j *Job) Link(parent, child *Task, bytes int64) *Edge {
	if parent.Job != j || child.Job != j {
		panic("job: Link across jobs")
	}
	if parent == child {
		panic("job: self-dependency on " + parent.Name())
	}
	var e *Edge
	if n := len(parent.Out); n < cap(parent.Out) {
		e = parent.Out[:n+1][n] // each edge object belongs to one Out slot
	}
	if e == nil {
		e = new(Edge)
	}
	*e = Edge{From: parent, To: child, Bytes: bytes}
	parent.Out = append(parent.Out, e)
	child.In = append(child.In, e)
	return e
}

// Seal finalizes the DAG: computes pending-dependency counts, marks root
// tasks ready, validates acyclicity and keeps the topological order.
// Call exactly once, after all AddTask/Link calls.
func (j *Job) Seal() error {
	if len(j.Tasks) == 0 {
		return fmt.Errorf("job %d has no tasks", j.ID)
	}
	if err := j.sort(); err != nil {
		return err
	}
	for _, t := range j.Tasks {
		t.pendingDeps = len(t.In)
		if t.pendingDeps == 0 {
			t.State = TaskReady
			t.ReadyAt = j.ArriveAt
		} else {
			t.State = TaskBlocked
		}
	}
	return nil
}

// sort computes j.order by Kahn's algorithm, FIFO from the roots in
// task order. It needs no scratch of its own: order doubles as the work
// queue and pendingDeps, which Seal sets afterwards, as the in-degrees.
func (j *Job) sort() error {
	order := j.order[:0]
	if cap(order) < len(j.Tasks) {
		order = make([]*Task, 0, len(j.Tasks))
	}
	for _, t := range j.Tasks {
		t.pendingDeps = len(t.In)
		if t.pendingDeps == 0 {
			order = append(order, t)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, e := range order[head].Out {
			e.To.pendingDeps--
			if e.To.pendingDeps == 0 {
				order = append(order, e.To)
			}
		}
	}
	j.order = order
	if len(order) != len(j.Tasks) {
		return fmt.Errorf("job %d task graph has a cycle", j.ID)
	}
	return nil
}

// TopoOrder returns the tasks in a topological order, or an error if the
// graph has a cycle. For a sealed job it is the order Seal kept; the
// slice belongs to the job and must not be modified.
func (j *Job) TopoOrder() ([]*Task, error) {
	if len(j.order) != len(j.Tasks) {
		if err := j.sort(); err != nil {
			return nil, err
		}
	}
	return j.order, nil
}

// TaskFinished records that t completed at time now and reports whether
// the whole job is now done. The caller is responsible for propagating
// output edges (data transfers) and calling SatisfyDep on children.
func (j *Job) TaskFinished(t *Task, now simtime.Time) (jobDone bool) {
	if t.Job != j {
		panic("job: TaskFinished for foreign task")
	}
	if t.State == TaskFinished {
		panic("job: double finish of " + t.Name())
	}
	t.State = TaskFinished
	t.FinishAt = now
	j.finished++
	if j.finished == len(j.Tasks) {
		j.FinishAt = now
		return true
	}
	return false
}

// Done reports whether all tasks have finished.
func (j *Job) Done() bool { return j.finished == len(j.Tasks) }

// MarkLost records that the job was retracted by a failure (server crash
// with a drop policy, or no alive server to place it on). A lost job
// never completes; the scheduler stops tracking it.
func (j *Job) MarkLost() { j.lost = true }

// Lost reports whether the job was retracted by a failure.
func (j *Job) Lost() bool { return j.lost }

// Sojourn reports the job's total time in system (finish - arrive).
// Valid only after Done.
func (j *Job) Sojourn() simtime.Time { return j.FinishAt - j.ArriveAt }
