package sched

import (
	"fmt"

	"holdcsim/internal/job"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/server"
)

// OrphanPolicy selects what happens to tasks stranded by a server crash
// (and to jobs that arrive while no eligible server is alive).
type OrphanPolicy int

// Orphan policies. The zero value requeues: orphaned tasks restart from
// scratch on an alive server (or wait parked until one recovers), so no
// work is lost — only time. OrphanDrop retracts the whole job: every
// unfinished task is aborted and the job is counted lost.
const (
	OrphanRequeue OrphanPolicy = iota
	OrphanDrop
)

// String implements fmt.Stringer.
func (p OrphanPolicy) String() string {
	switch p {
	case OrphanRequeue:
		return "requeue"
	case OrphanDrop:
		return "drop"
	}
	return fmt.Sprintf("OrphanPolicy(%d)", int(p))
}

// MarshalText implements encoding.TextMarshaler (scenario-file codec).
func (p OrphanPolicy) MarshalText() ([]byte, error) {
	switch p {
	case OrphanRequeue, OrphanDrop:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("sched: unknown orphan policy %d", int(p))
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *OrphanPolicy) UnmarshalText(b []byte) error {
	switch string(b) {
	case "requeue":
		*p = OrphanRequeue
	case "drop":
		*p = OrphanDrop
	default:
		return fmt.Errorf("sched: unknown orphan policy %q (want requeue or drop)", b)
	}
	return nil
}

// LostReason says why a job was lost.
type LostReason int

// Loss reasons.
const (
	// LostServerCrash: a task of the job was orphaned by a crash under
	// OrphanDrop.
	LostServerCrash LostReason = iota
	// LostNoAliveServer: the job needed placement while every eligible
	// server was down, under OrphanDrop.
	LostNoAliveServer
)

// String implements fmt.Stringer.
func (r LostReason) String() string {
	switch r {
	case LostServerCrash:
		return "server-crash"
	case LostNoAliveServer:
		return "no-alive-server"
	}
	return fmt.Sprintf("LostReason(%d)", int(r))
}

// AllDownError is the typed error Select returns when every server
// eligible for a task is down. Placement never panics on a dead farm:
// callers park or drop the task per the orphan policy.
type AllDownError struct {
	// Kind is the task kind that had no alive candidate ("" = any).
	Kind string
}

// Error implements error.
func (e *AllDownError) Error() string {
	if e.Kind == "" {
		return "sched: all servers down"
	}
	return fmt.Sprintf("sched: all servers eligible for kind %q down", e.Kind)
}

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

// aliveEligible returns the eligible servers that are up. With no
// crashed server in the farm it is exactly Eligible — no filtering, no
// allocation — so the fault machinery costs nothing on healthy runs.
// The returned slice is valid until the next call.
func (s *Scheduler) aliveEligible(t *job.Task) []*server.Server {
	cands := s.Eligible(t)
	if s.downCount == 0 {
		s.cover.Hit(modelcov.PlaceFastPath)
		return cands
	}
	s.cover.Hit(modelcov.PlaceFiltered)
	s.aliveScratch = s.aliveScratch[:0]
	for _, srv := range cands {
		if !srv.Failed() {
			s.aliveScratch = append(s.aliveScratch, srv)
		}
	}
	return s.aliveScratch
}

// Select runs the placement policy over the task's alive eligible
// servers. It returns an *AllDownError — never panics — when no
// eligible server is up.
func (s *Scheduler) Select(t *job.Task) (*server.Server, error) {
	cands := s.aliveEligible(t)
	if len(cands) == 0 {
		s.cover.Hit(modelcov.PlaceAllDown)
		return nil, &AllDownError{Kind: t.Kind}
	}
	s.startPolicy()
	srv := s.cfg.Placer.Place(s, t, cands)
	if srv == nil || srv.Failed() {
		// A policy that ignores the filtered candidate list (or returns
		// nil) falls back to the first alive candidate.
		s.cover.Hit(modelcov.PlaceFallback)
		srv = cands[0]
	}
	return srv, nil
}

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

// ServerCrashed applies a crash to one managed server: the server's
// local state is discarded and every orphaned task is handled per the
// orphan policy — requeued onto an alive server (restarting from
// scratch; parked if none is up) or dropped with its whole job. It
// returns the jobs newly lost and the orphan count for the caller's
// fault ledger. Crashing an already-failed server is a no-op.
func (s *Scheduler) ServerCrashed(srv *server.Server) (jobsLost, orphans int) {
	if srv.Failed() {
		return 0, 0
	}
	return s.ServersCrashed([]*server.Server{srv})
}

// ServersCrashed applies a correlated crash to a batch of servers —
// one blast-radius event. The whole batch goes down first and only
// then is the orphan policy applied, so a requeued task can never land
// on a sibling that the same blast is about to kill. Already-failed
// members are skipped. For a single server the behavior is exactly
// ServerCrashed's.
func (s *Scheduler) ServersCrashed(srvs []*server.Server) (jobsLost, orphans int) {
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
		s.downCount++
		s.tasksAborted += int64(len(tasks))
		orphans += len(tasks)
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
			t.ReadyAt = s.eng.Now()
			t.ServerID = -1
			s.cover.Hit(modelcov.SchedOrphanRequeue)
			s.admitReady(t)
		}
	}
	return int(s.jobsLost - lostBefore), orphans
}

// ServerRecovered boots a crashed server back into the farm and drains
// work that waited for it: parked tasks are re-admitted and the global
// queue is re-scanned. Recovering a healthy server is a no-op.
func (s *Scheduler) ServerRecovered(srv *server.Server) {
	s.ServersRecovered([]*server.Server{srv})
}

// ServersRecovered boots a batch of crashed servers back into the farm
// atomically, then drains parked tasks and the global queue once —
// recovering a rack re-scans waiting work against the whole restored
// capacity rather than per member. Healthy members are skipped; for a
// single server the behavior is exactly ServerRecovered's.
func (s *Scheduler) ServersRecovered(srvs []*server.Server) {
	recovered := false
	for _, srv := range srvs {
		if !srv.Failed() {
			continue
		}
		srv.Recover()
		s.downCount--
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
