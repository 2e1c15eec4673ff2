package sched

import (
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// pool is the active set AdaptivePool and Provisioner dispatch to: dense
// membership by server ID plus a count. Members keep their delay timer
// off; a demoted server drains and suspends after the timer it is given.
type pool struct {
	in []bool
	n  int
}

// Start implements Starter: every server begins in the pool.
func (p *pool) Start(s *Scheduler) {
	p.in = make([]bool, len(s.servers))
	for _, srv := range s.servers {
		p.in[srv.ID()] = true
		srv.SetDelayTimer(false, 0)
	}
	p.n = len(s.servers)
}

// ActiveServers reports the pool size.
func (p *pool) ActiveServers() int { return p.n }

// least is leastBy pending tasks among the pool's members — or, with
// member false, among the servers outside it.
func (p *pool) least(srvs []*server.Server, member bool) *server.Server {
	return leastBy(srvs, (*server.Server).PendingTasks, func(srv *server.Server) bool { return p.in[srv.ID()] == member })
}

// promote moves srv into the pool, pre-warming it with a system wake,
// and reports whether it was outside (nil is no move).
func (p *pool) promote(srv *server.Server) bool {
	if srv == nil || p.in[srv.ID()] {
		return false
	}
	p.in[srv.ID()] = true
	p.n++
	srv.SetDelayTimer(false, 0)
	srv.WakeUp()
	return true
}

// demote moves srv out of the pool — after tau idle it suspends — and
// reports whether it was inside (nil is no move).
func (p *pool) demote(srv *server.Server, tau simtime.Time) bool {
	if srv == nil || !p.in[srv.ID()] {
		return false
	}
	p.in[srv.ID()] = false
	p.n--
	srv.SetDelayTimer(true, tau)
	return true
}
