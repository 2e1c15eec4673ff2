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

	pool       // the active pool: all servers at Start, then the load estimator sheds
	lastChange simtime.Time
	changed    bool
}

// poolDwell rate-limits pool migrations: at most one per dwell. Without
// it the instantaneous load estimator would flip servers between pools
// at event rate and they would live in transition states.
const poolDwell = simtime.Second

// NewAdaptivePool returns the policy with the given thresholds.
func NewAdaptivePool(tWakeup, tSleep float64, tau simtime.Time) *AdaptivePool {
	return &AdaptivePool{TWakeup: tWakeup, TSleep: tSleep, Tau: tau}
}

// Place implements Placer: least-loaded within the active pool (the
// front-end load balancer "dispatches tasks to the servers in active
// server pool only").
func (a *AdaptivePool) Place(s *Scheduler, t *job.Task) *server.Server {
	best := a.least(true)
	if best == nil {
		// No alive member (transient): wake the least-loaded alive
		// server, which is then the least-loaded non-member.
		best = a.least(false)
		a.moved(s, a.promote(best))
	}
	return best
}

// Name implements Placer.
func (a *AdaptivePool) Name() string { return "adaptive-pool" }

// Evaluate implements Controller: it applies the threshold policy, at
// most one migration per poolDwell. It migrates alive servers only, as
// Place picks them.
func (a *AdaptivePool) Evaluate(s *Scheduler) {
	now := s.eng.Now()
	if a.changed && now-a.lastChange < poolDwell {
		return
	}
	load := s.LoadPerServer(a.n)
	switch {
	case load > a.TWakeup && a.n < len(s.servers):
		// Promote the sleeping server with the fewest committed tasks: its
		// controller reverts to shallow-sleep-only and it pre-warms.
		a.moved(s, a.promote(a.least(false)))
	case load < a.TSleep && a.n > minActive:
		// Demote the least-loaded active server into the sleep pool.
		a.moved(s, a.demote(a.least(true), a.Tau))
	}
}

// moved records a pool migration, if one happened, and restarts the dwell.
func (a *AdaptivePool) moved(s *Scheduler, did bool) {
	if did {
		a.lastChange = s.eng.Now()
		a.changed = true
	}
}
