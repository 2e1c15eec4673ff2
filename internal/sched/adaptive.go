package sched

import (
	"holdcsim/internal/job"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// AdaptivePool implements the Sec. IV-C energy-latency optimization
// framework (WASP [66]): servers are coordinated between an active pool
// — whose local power controllers allow only shallow sleep (package C6)
// — and a sleep pool whose servers transition through package C6 into
// system sleep (suspend-to-RAM) after a delay timer τ.
//
// A load estimator monitors pending jobs per active server. Above
// TWakeup, one server migrates sleep->active (with a proactive system
// wake); below TSleep, one migrates active->sleep. The front-end
// dispatches only to the active pool.
type AdaptivePool struct {
	// TWakeup and TSleep are the load thresholds (jobs per active
	// server).
	TWakeup, TSleep float64
	// Tau is the sleep-pool delay timer before suspend-to-RAM.
	Tau simtime.Time
	// MinActive floors the active pool.
	MinActive int
	// Dwell rate-limits pool migrations: at most one per Dwell. Without
	// it the instantaneous load estimator would flip servers between
	// pools at event rate and they would live in transition states.
	Dwell simtime.Time

	pool       // the active pool: all servers at Start, then the load estimator sheds
	lastChange simtime.Time
	changed    bool

	// Transitions counts pool migrations for diagnostics.
	Transitions int64
}

// NewAdaptivePool returns the policy with the given thresholds and a
// one-second migration dwell.
func NewAdaptivePool(tWakeup, tSleep float64, tau simtime.Time) *AdaptivePool {
	return &AdaptivePool{
		TWakeup:   tWakeup,
		TSleep:    tSleep,
		Tau:       tau,
		MinActive: 1,
		Dwell:     simtime.Second,
	}
}

// Place implements Placer: least-loaded within the active pool (the
// front-end load balancer "dispatches tasks to the servers in active
// server pool only").
func (a *AdaptivePool) Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	best := a.least(candidates, true)
	if best == nil {
		// Active pool empty (transient): wake the least-loaded server.
		best = leastBy(candidates, (*server.Server).PendingTasks, nil)
		a.moved(s, a.promote(best))
	}
	return best
}

// Name implements Placer.
func (a *AdaptivePool) Name() string { return "adaptive-pool" }

// OnJobArrival implements Controller.
func (a *AdaptivePool) OnJobArrival(s *Scheduler, j *job.Job) { a.evaluate(s) }

// OnTaskDone implements Controller.
func (a *AdaptivePool) OnTaskDone(s *Scheduler, t *job.Task) { a.evaluate(s) }

// evaluate applies the threshold policy, at most one migration per
// Dwell.
func (a *AdaptivePool) evaluate(s *Scheduler) {
	now := s.eng.Now()
	if a.changed && now-a.lastChange < a.Dwell {
		return
	}
	load := s.LoadPerServer(a.n)
	switch {
	case load > a.TWakeup && a.n < len(s.servers):
		// Promote the sleeping server with the fewest pending tasks: its
		// controller reverts to shallow-sleep-only and it pre-warms.
		a.moved(s, a.promote(a.least(s.servers, false)))
	case load < a.TSleep && a.n > a.MinActive:
		// Demote the least-loaded active server into the sleep pool.
		a.moved(s, a.demote(a.least(s.servers, true), a.Tau))
	}
}

// moved records a pool migration, if one happened, and restarts the dwell.
func (a *AdaptivePool) moved(s *Scheduler, did bool) {
	if did {
		a.Transitions++
		a.lastChange = s.eng.Now()
		a.changed = true
	}
}
