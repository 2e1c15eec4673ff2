package sched

import (
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// pool is the active set AdaptivePool and Provisioner dispatch to: the
// servers outside it as an ID set, the count of alive members, and one
// winner tree per side — side[1] over the members, side[0] over the
// rest — keyed by the scheduler's loadKey (committed tasks, keyedOut
// while down) on a server's own side and keyedOut on the other. Members
// keep their delay timer off; a demoted server drains and suspends
// after the timer it is given. A member that crashes stays a member,
// uncounted and keyed out, until it recovers. The scheduler's reindex
// re-keys a server (fix); promote and demote re-key the server they
// move.
type pool struct {
	out  idset
	n    int
	s    *Scheduler
	side [2]winnerTree
}

// minActive floors the pool: neither policy demotes its last member.
const minActive = 1

// Start implements Starter: every server begins in the pool. The pool
// registers with the scheduler, whose reindex re-keys its servers from
// here on.
func (p *pool) Start(s *Scheduler) {
	n := len(s.servers)
	p.out = newIDSet(n)
	p.s = s
	for m := range p.side {
		key := make([]int, n)
		for id := range key {
			key[id] = keyedOut
		}
		p.side[m] = newWinnerTree(key)
	}
	for id, srv := range s.servers {
		srv.SetDelayTimer(false, 0)
		p.fix(id)
	}
	s.pool = p
}

// ActiveServers reports the pool size: its alive members.
func (p *pool) ActiveServers() int { return p.n }

// has reports whether server id is a member.
func (p *pool) has(id int) bool { return !p.out.has(id) }

// fix re-keys server id on both sides, and recounts it, after its
// committed count, its liveness or its side changed. A server counts as
// an alive member exactly while its member-side key is not keyedOut.
func (p *pool) fix(id int) {
	m := 0
	if p.has(id) {
		m = 1
	}
	was := p.side[1].key[id] != keyedOut
	p.side[m].set(id, p.s.loadKey(id))
	p.side[1-m].set(id, keyedOut)
	if now := p.side[1].key[id] != keyedOut; now != was {
		if now {
			p.n++
		} else {
			p.n--
		}
	}
}

// least returns the alive server with the fewest committed tasks among
// the members — or, with member false, among the rest — ties to the
// lower ID; nil when that side has no alive server.
func (p *pool) least(member bool) *server.Server {
	t := &p.side[0]
	if member {
		t = &p.side[1]
	}
	if w := t.node[1]; t.key[w] != keyedOut {
		return p.s.servers[w]
	}
	return nil
}

// firstParked returns the lowest-ID alive server outside the pool, or
// nil.
func (p *pool) firstParked() *server.Server {
	for id := p.out.next(0); id >= 0; id = p.out.next(id + 1) {
		if srv := p.s.servers[id]; !srv.Failed() {
			return srv
		}
	}
	return nil
}

// promote moves srv into the pool, pre-warming it with a system wake,
// and reports whether it was outside (nil is no move).
func (p *pool) promote(srv *server.Server) bool {
	if srv == nil || p.has(srv.ID()) {
		return false
	}
	p.out.remove(srv.ID())
	p.fix(srv.ID())
	srv.SetDelayTimer(false, 0)
	srv.WakeUp()
	return true
}

// demote moves srv out of the pool — after tau idle it suspends — and
// reports whether it was inside (nil is no move).
func (p *pool) demote(srv *server.Server, tau simtime.Time) bool {
	if srv == nil || !p.has(srv.ID()) {
		return false
	}
	p.out.add(srv.ID())
	p.fix(srv.ID())
	srv.SetDelayTimer(true, tau)
	return true
}
