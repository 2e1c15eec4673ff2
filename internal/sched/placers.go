package sched

import (
	"holdcsim/internal/job"
	"holdcsim/internal/network"
	"holdcsim/internal/server"
	"holdcsim/internal/topology"
)

// RoundRobin cycles through candidates in order (paper Sec. III-E's
// round-robin global policy).
type RoundRobin struct{}

// Place implements Placer.
func (RoundRobin) Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	srv := candidates[s.rrNext%len(candidates)]
	s.rrNext++
	return srv
}

// Name implements Placer.
func (RoundRobin) Name() string { return "round-robin" }

// LeastLoaded picks the candidate with the fewest committed tasks — the
// paper's load-balancing policy and the Server-Balanced baseline of
// Sec. IV-D. Ties break on the lower server ID. On a healthy farm it
// reads the scheduler's load tree: exact, and O(log N) per commitment
// instead of O(N) per placement.
type LeastLoaded struct{}

// Place implements Placer.
func (LeastLoaded) Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	return s.leastLoaded(candidates, nil)
}

// Name implements Placer.
func (LeastLoaded) Name() string { return "least-loaded" }

// leastBy is the one least-loaded scan every policy shares: the server
// with the smallest load among those ok admits (nil admits all), nil when
// none qualifies. Only a strictly smaller load displaces the incumbent,
// so ties go to the earliest entry: the lowest ID, lists being in ID
// order. It stays inlinable, so a load or ok passed as a function name or
// literal — not a method value — is inlined into the loop.
func leastBy(srvs []*server.Server, load func(*server.Server) int, ok func(*server.Server) bool) *server.Server {
	var best *server.Server
	bestLoad := 0
	for _, srv := range srvs {
		if ok == nil || ok(srv) {
			if l := load(srv); best == nil || l < bestLoad {
				best, bestLoad = srv, l
			}
		}
	}
	return best
}

// leastLoaded is leastBy the committed Load. When srvs is the whole farm
// (Select's candidates with no server down) and ok admits all, the
// answer is the load tree's root — the same server, since the tree
// breaks ties to the lower index as the scan does. The tree is built on
// that first ask and kept current by commit from then on.
func (s *Scheduler) leastLoaded(srvs []*server.Server, ok func(*server.Server) bool) *server.Server {
	if ok == nil && len(srvs) == len(s.servers) {
		if s.loads.node == nil {
			s.loads = newWinnerTree(s.committed)
		}
		return s.servers[s.loads.node[1]]
	}
	return leastBy(srvs, func(srv *server.Server) int { return s.Load(srv) }, ok)
}

// winnerTree is a tournament over key: leaves at [size, 2·size), size
// the next power of two ≥ len(key), hold key indices (−1 for padding),
// and each internal node i holds the winner of children 2i and 2i+1, so
// node[1] is the argmin. The right child wins only when strictly less,
// so ties go to the lower index, as leastBy's scan picks. Padding only
// ever sits to the right of real leaves and never wins.
type winnerTree struct {
	key  []int
	node []int32
}

// newWinnerTree builds the tree over key bottom-up. key is shared, not
// copied: whoever changes key[i] calls fix(i).
func newWinnerTree(key []int) winnerTree {
	size := 1
	for size < len(key) {
		size *= 2
	}
	t := winnerTree{key: key, node: make([]int32, 2*size)}
	for i := range size {
		t.node[size+i] = -1
		if i < len(key) {
			t.node[size+i] = int32(i)
		}
	}
	for i := size - 1; i >= 1; i-- {
		t.node[i] = t.match(i)
	}
	return t
}

// match replays node i's game from its two children.
func (t *winnerTree) match(i int) int32 {
	l, r := t.node[2*i], t.node[2*i+1]
	if r < 0 || t.key[r] >= t.key[l] {
		return l
	}
	return r
}

// fix replays the games on leaf i's path to the root after key[i]
// changed — O(log len(key)).
func (t *winnerTree) fix(i int) {
	for n := (len(t.node)/2 + i) / 2; n >= 1; n /= 2 {
		t.node[n] = t.match(n)
	}
}

// PackFirst consolidates load onto as few servers as possible: among
// awake servers with a spare execution slot it picks the most-loaded
// (tightest pack, ties to the lowest ID); if none has a spare slot it
// wakes the lowest-ID sleeping server; with nothing asleep it falls back
// to least-loaded. Consolidation is what makes server sleep states
// profitable at mid utilizations — the delay-timer studies (Sec. IV-B)
// pair it with per-server τ policies.
type PackFirst struct{}

// Place implements Placer.
func (PackFirst) Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	return s.pack(candidates, nil)
}

// Name implements Placer.
func (PackFirst) Name() string { return "pack-first" }

// pack consolidates onto the candidates in admits (nil = all): the
// tightest awake one with a spare slot, else the first sleeping one,
// else — everything awake and saturated — the least loaded candidate.
func (s *Scheduler) pack(candidates []*server.Server, in func(*server.Server) bool) *server.Server {
	var best *server.Server
	for _, srv := range candidates {
		if (in != nil && !in(srv)) || srv.Asleep() || s.Load(srv) >= srv.Cores() {
			continue
		}
		if best == nil || s.Load(srv) > s.Load(best) {
			best = srv
		}
	}
	if best != nil {
		return best
	}
	for _, srv := range candidates {
		if (in == nil || in(srv)) && srv.Asleep() {
			return srv
		}
	}
	return s.leastLoaded(candidates, nil)
}

// Random places uniformly at random (useful as an experimental control).
type Random struct {
	// Next returns a pseudo-random non-negative int; supplied by the
	// caller so placement draws share the experiment's seed discipline.
	Next func(n int) int
}

// Place implements Placer.
func (r Random) Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	return candidates[r.Next(len(candidates))]
}

// Name implements Placer.
func (Random) Name() string { return "random" }

// NetworkAware implements the Server-Network-Aware policy of Sec. IV-D:
// prefer servers that are already awake and have a spare execution slot
// (least loaded among them); when a sleeping server must be activated,
// pick the one whose communication paths wake the fewest additional
// switches. Job requests enter at the graph's first host: root tasks'
// traffic notionally originates there.
type NetworkAware struct {
	net   *network.Network
	hosts []topology.NodeID // server ID -> topology node
}

// Bind implements Binder.
func (p *NetworkAware) Bind(net *network.Network, hosts []topology.NodeID) {
	p.net, p.hosts = net, hosts
}

// overCommit scales per-server slot capacity before the policy declares
// "a need for an additional server": transient bursts queue on awake
// servers instead of waking sleepers.
const overCommit = 4

// capacity reports the elastic slot budget for one server.
func (p *NetworkAware) capacity(srv *server.Server) int {
	return srv.Cores() * overCommit
}

// Place implements Placer.
func (p *NetworkAware) Place(s *Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	// Awake servers with a free slot first — packed tightly, so unused
	// servers and their switches stay asleep ("whenever there is a need
	// for an additional server to transit to active state...").
	var best *server.Server
	for _, srv := range candidates {
		if srv.Asleep() || s.Load(srv) >= p.capacity(srv) {
			continue
		}
		if best == nil || s.Load(srv) > s.Load(best) {
			best = srv
		}
	}
	if best != nil {
		return best
	}
	// All awake servers are full: "an additional server [must] transit
	// to active state" (Sec. IV-D). Wake the sleeping server with the
	// least network cost — the number of additional switches to wake on
	// the paths from this task's communication peers — breaking ties
	// toward lower load.
	endpoints := p.peers(t)
	bestCost := -1
	for _, srv := range candidates {
		if !srv.Asleep() {
			continue
		}
		cost := 0
		h := p.hosts[srv.ID()]
		for _, ep := range endpoints {
			cost += p.net.SleepingSwitchesOnPath(ep, h)
		}
		if best == nil || cost < bestCost ||
			(cost == bestCost && s.Load(srv) < s.Load(best)) {
			best = srv
			bestCost = cost
		}
	}
	if best != nil {
		return best
	}
	// Everything is awake and saturated: least loaded.
	return s.leastLoaded(candidates, nil)
}

// peers lists the topology nodes this task will exchange data with:
// the servers of placed parents, or the front end for root tasks.
func (p *NetworkAware) peers(t *job.Task) []topology.NodeID {
	var out []topology.NodeID
	for _, e := range t.In {
		if e.From.ServerID >= 0 {
			out = append(out, p.hosts[e.From.ServerID])
		}
	}
	if len(out) == 0 {
		out = append(out, p.net.Graph().Hosts()[0])
	}
	return out
}

// Name implements Placer.
func (*NetworkAware) Name() string { return "server-network-aware" }
