package sched

import (
	"holdcsim/internal/job"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// DualTimer implements the dual delay-timer strategy of Sec. IV-B
// (originally [69]): the farm splits into a high-τ pool that is
// prioritized for incoming work (so it stays warm) and a low-τ pool that
// quickly drops into system sleep after draining. Placement prefers
// high-τ servers with spare slots, spilling into the low-τ pool only
// under load.
type DualTimer struct {
	// HighCount servers (lowest IDs) get TauHigh; the rest get TauLow.
	HighCount       int
	TauHigh, TauLow simtime.Time
}

// NewDualTimer returns the policy.
func NewDualTimer(highCount int, tauHigh, tauLow simtime.Time) *DualTimer {
	return &DualTimer{HighCount: highCount, TauHigh: tauHigh, TauLow: tauLow}
}

// Start implements Starter: it arms the two pools' delay timers.
func (d *DualTimer) Start(s *Scheduler) {
	for i, srv := range s.servers {
		if i < d.HighCount {
			srv.SetDelayTimer(true, d.TauHigh)
		} else {
			srv.SetDelayTimer(true, d.TauLow)
		}
	}
}

// Place implements Placer. The high-τ pool absorbs load first
// (least-loaded within it); overflow packs into as few low-τ servers as
// possible so the rest of the low pool stays asleep — spreading the
// spill would make the aggressive low-τ timers flap.
func (d *DualTimer) Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	// Pool membership is by server ID (Start gave IDs below HighCount the
	// high τ), not slice position: the candidate list can be a filtered
	// subset — crashed servers removed, or a kind restriction — and
	// positional splits would misclassify servers.
	low := func(srv *server.Server) bool { return srv.ID() >= d.HighCount }
	best := s.leastLoaded(candidates, func(srv *server.Server) bool {
		return !low(srv) && s.Load(srv) < srv.Cores()
	})
	if best != nil {
		return best
	}
	return s.pack(candidates, low)
}

// Name implements Placer.
func (d *DualTimer) Name() string { return "dual-delay-timer" }
