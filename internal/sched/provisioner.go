package sched

import (
	"holdcsim/internal/job"
	"holdcsim/internal/server"
)

// Provisioner implements the Sec. IV-A dynamic resource provisioning
// policy: each server carries minimum and maximum load-per-server
// thresholds. When the current load per active server drops below the
// minimum, one server is put aside (it finishes pending tasks, then
// sleeps); when it exceeds the maximum, one parked server is activated.
// It doubles as the scheduler's Placer, dispatching only to the active
// set.
type Provisioner struct {
	// MinLoad and MaxLoad bound the jobs-per-active-server band.
	MinLoad, MaxLoad float64

	// The active set. All servers start in it — and stay powered; the
	// provisioner itself moves parked servers into low power ("put aside
	// after finishing its pending tasks", Sec. IV-A).
	pool
}

// NewProvisioner returns a provisioner with the given thresholds. All
// servers start active, matching the paper's initial condition.
func NewProvisioner(minLoad, maxLoad float64) *Provisioner {
	return &Provisioner{MinLoad: minLoad, MaxLoad: maxLoad}
}

// Place implements Placer: least-loaded among the active set's alive
// servers.
func (p *Provisioner) Place(s *Scheduler, t *job.Task) *server.Server {
	if best := p.least(true); best != nil {
		return best
	}
	return s.alive(0) // all parked: fall back (and rebalance soon)
}

// Name implements Placer.
func (p *Provisioner) Name() string { return "provisioner" }

// Evaluate implements Controller: it applies the threshold policy, one
// transition per event, as in the paper ("one server will be put
// aside"/"set to active state"). It moves alive servers only, as Place
// picks them: a crashed one would count in the pool without serving.
func (p *Provisioner) Evaluate(s *Scheduler) {
	load := s.LoadPerServer(p.n)
	switch {
	case load > p.MaxLoad && p.n < len(s.servers):
		// Activate the parked server with the lowest ID; pre-warm it
		// and restore its always-on controller.
		p.promote(p.firstParked())
	case load < p.MinLoad && p.n > minActive:
		// Park the active server with the fewest committed tasks: it
		// finishes its backlog, then the zero-length delay timer drops
		// it into system sleep.
		p.demote(p.least(true), 0)
	}
}
