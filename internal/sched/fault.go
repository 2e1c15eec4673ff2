package sched

import (
	"holdcsim/internal/enum"
	"holdcsim/internal/job"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/server"
)

// OrphanPolicy selects what happens to tasks stranded by a server crash
// (and to jobs that arrive while no server is alive).
type OrphanPolicy int

// Orphan policies. The zero value requeues: orphaned tasks restart from
// scratch on an alive server (or wait parked until one recovers), so no
// work is lost — only time. OrphanDrop retracts the whole job: every
// unfinished task is aborted and the job is counted lost.
const (
	OrphanRequeue OrphanPolicy = iota
	OrphanDrop
)

var orphanPolicyNames = []string{OrphanRequeue: "requeue", OrphanDrop: "drop"}

// String implements fmt.Stringer.
func (p OrphanPolicy) String() string { return enum.String(p, orphanPolicyNames, "OrphanPolicy") }

// Valid reports whether p is a named policy.
func (p OrphanPolicy) Valid() bool { return enum.Valid(p, orphanPolicyNames) }

// MarshalText implements encoding.TextMarshaler (scenario-file codec).
func (p OrphanPolicy) MarshalText() ([]byte, error) {
	return enum.Marshal(p, orphanPolicyNames, "orphan policy")
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *OrphanPolicy) UnmarshalText(b []byte) error {
	return enum.Unmarshal(b, p, orphanPolicyNames, "orphan policy")
}

// LostReason says why a job was lost.
type LostReason int

// Loss reasons.
const (
	// LostServerCrash: a task of the job was orphaned by a crash under
	// OrphanDrop.
	LostServerCrash LostReason = iota
	// LostNoAliveServer: the job needed placement while every
	// server was down, under OrphanDrop.
	LostNoAliveServer
)

// AllDownError is the typed error Select returns when every server is
// down. Placement never panics on a dead farm: callers park or drop the
// task per the orphan policy.
type AllDownError struct{}

// Error implements error.
func (e *AllDownError) Error() string { return "sched: all servers down" }

// JobsLost reports jobs retracted by failures.
func (s *Scheduler) JobsLost() int64 { return s.jobsLost }

// TasksAborted reports dispatched task incarnations that were retracted
// before finishing — orphaned by a crash (whether requeued or dropped)
// or aborted on a healthy server because their job was lost. Task
// conservation under failures reads: dispatched == finished + pending +
// aborted.
func (s *Scheduler) TasksAborted() int64 { return s.tasksAborted }

// OnJobLost subscribes a job-loss callback (invariant probes, fault
// ledgers). Subscribers run in registration order, after the scheduler's
// own counters are updated.
func (s *Scheduler) OnJobLost(fn func(*job.Job, LostReason)) {
	s.onJobLost = append(s.onJobLost, fn)
}

// Select runs the placement policy. It returns an *AllDownError — never
// panics — when no server is up.
func (s *Scheduler) Select(t *job.Task) (*server.Server, error) {
	if s.downCount == 0 {
		s.cover.Hit(modelcov.PlaceFastPath)
	} else {
		s.cover.Hit(modelcov.PlaceFiltered)
		if s.downCount == len(s.servers) {
			s.cover.Hit(modelcov.PlaceAllDown)
			return nil, &AllDownError{}
		}
	}
	s.startPolicy()
	srv := s.cfg.Placer.Place(s, t)
	if srv == nil || srv.Failed() {
		// A policy that picks a crashed server (or none) falls back to
		// the lowest-ID alive server.
		s.cover.Hit(modelcov.PlaceFallback)
		srv = s.alive(0)
	}
	return srv, nil
}

// ServersDown reports how many servers are crashed. The fault injector
// holds it to the outages it owns at every scope check.
func (s *Scheduler) ServersDown() int { return s.downCount }

// handleUnplaceable applies the orphan policy to a ready task that found
// no alive server: requeue parks it until a recovery drains the parked
// list; drop retracts its whole job.
func (s *Scheduler) handleUnplaceable(t *job.Task) {
	if s.cfg.Orphans == OrphanDrop {
		s.killJob(t.Job, LostNoAliveServer)
		return
	}
	t.State = job.TaskReady
	s.parked = append(s.parked, t)
	s.cover.Hit(modelcov.SchedOrphanPark)
}

// killJob retracts a job after a failure: every unfinished task is
// aborted wherever it lives (queued or running on a healthy server,
// parked, or in the global queue), committed counters are released, and
// the job is counted lost. Finished tasks stay finished — their work is
// wasted, not uncounted. Idempotent per job.
func (s *Scheduler) killJob(j *job.Job, reason LostReason) {
	if j.Done() || j.Lost() {
		return
	}
	j.MarkLost()
	if reason == LostServerCrash {
		s.cover.Hit(modelcov.SchedDropCrash)
	} else {
		s.cover.Hit(modelcov.SchedDropNoAlive)
	}
	// Two passes, queued/reserved tasks first: aborting a running task
	// makes its core pull the next queued task, and without this order a
	// doomed sibling queued behind it would transiently start (a wasted
	// schedule/cancel pair and two power recomputes per sibling) only to
	// be aborted by a later iteration.
	for pass := 0; pass < 2; pass++ {
		for _, t := range j.Tasks {
			if t.State == job.TaskFinished || t.State == job.TaskLost {
				continue
			}
			if (t.State == job.TaskRunning) != (pass == 1) {
				continue
			}
			if t.ServerID >= 0 {
				srv := s.servers[t.ServerID]
				if !srv.Failed() && srv.Abort(t) {
					s.tasksAborted++
				}
				// An aborted task was pending, so by the
				// pending-within-commitment law it holds a commitment:
				// this decommit is not clamped.
				s.commit(t.ServerID, -1)
			}
			t.State = job.TaskLost
		}
	}
	s.dropTracked(j)
	s.jobsInSystem--
	s.jobsLost++
	for _, fn := range s.onJobLost {
		fn(j, reason)
	}
}

// dropTracked removes a lost job's tasks from the parked list and the
// global queue.
func (s *Scheduler) dropTracked(j *job.Job) {
	if len(s.parked) > 0 {
		keep := s.parked[:0]
		for _, t := range s.parked {
			if t.Job != j {
				keep = append(keep, t)
			}
		}
		s.parked = keep
	}
	if len(s.globalQ) > 0 {
		keep := s.globalQ[:0]
		for _, t := range s.globalQ {
			if t.Job != j {
				keep = append(keep, t)
			}
		}
		s.globalQ = keep
	}
}

// ServersCrashed applies a crash to a batch of managed servers — one
// failure domain going down. Each server's local state is discarded;
// the whole batch goes down first and only then is every orphaned task
// handled per the orphan policy — requeued onto an alive server
// (restarting from scratch; parked if none is up) or dropped with its
// whole job — so a requeued task can never land on a sibling that the
// same blast is about to kill. Already-failed members are skipped. It
// returns the jobs newly lost for the caller's fault ledger.
func (s *Scheduler) ServersCrashed(srvs []*server.Server) (jobsLost int) {
	lostBefore := s.jobsLost
	type orphanSet struct {
		id    int
		tasks []*job.Task
	}
	var sets []orphanSet
	for _, srv := range srvs {
		if srv.Failed() {
			continue
		}
		tasks := srv.Crash()
		if s.down.w == nil {
			s.down = newIDSet(len(s.servers))
		}
		s.down.add(srv.ID())
		s.downCount++
		s.reindex(srv.ID())
		s.tasksAborted += int64(len(tasks))
		sets = append(sets, orphanSet{id: srv.ID(), tasks: tasks})
	}
	for _, set := range sets {
		for _, t := range set.tasks {
			if t.Job.Lost() || t.Job.Done() {
				continue // a sibling orphan already retracted the job
			}
			if s.cfg.Orphans == OrphanDrop {
				s.killJob(t.Job, LostServerCrash)
				continue
			}
			// Requeue: release the dead server's commitment and re-admit
			// the task as if it had just become ready.
			s.commit(set.id, -1)
			t.State = job.TaskReady
			t.ServerID = -1
			s.cover.Hit(modelcov.SchedOrphanRequeue)
			s.admitReady(t)
		}
	}
	return int(s.jobsLost - lostBefore)
}

// ServersRecovered boots a batch of crashed servers back into the farm
// atomically, then drains work that waited for them once — parked tasks
// are re-admitted and the global queue is re-scanned against the whole
// restored capacity rather than per member. Healthy members are skipped.
func (s *Scheduler) ServersRecovered(srvs []*server.Server) {
	recovered := false
	for _, srv := range srvs {
		if !srv.Failed() {
			continue
		}
		srv.Recover()
		s.down.remove(srv.ID())
		s.downCount--
		s.reindex(srv.ID())
		recovered = true
	}
	if !recovered {
		return
	}
	if len(s.parked) > 0 {
		pending := s.parked
		s.parked = nil
		for _, t := range pending {
			if !t.Job.Lost() {
				s.cover.Hit(modelcov.SchedParkedDrain)
				s.admitReady(t)
			}
		}
	}
	s.drainGlobalQueue()
}
