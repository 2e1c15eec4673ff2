package sched

import (
	"math"

	"holdcsim/internal/job"
	"holdcsim/internal/network"
	"holdcsim/internal/server"
	"holdcsim/internal/topology"
)

// RoundRobin cycles through the alive servers in ID order (paper Sec.
// III-E's round-robin global policy).
type RoundRobin struct{}

// Place implements Placer.
func (RoundRobin) Place(s *Scheduler, t *job.Task) *server.Server {
	srv := s.alive(s.rrNext % (len(s.servers) - s.downCount))
	s.rrNext++
	return srv
}

// Name implements Placer.
func (RoundRobin) Name() string { return "round-robin" }

// LeastLoaded picks the alive server with the fewest committed tasks —
// the paper's load-balancing policy and the Server-Balanced baseline of
// Sec. IV-D. Ties break on the lower server ID. It reads the scheduler's
// load tree: exact, and O(log N) per commitment instead of O(N) per
// placement.
type LeastLoaded struct{}

// Place implements Placer.
func (LeastLoaded) Place(s *Scheduler, t *job.Task) *server.Server {
	return s.leastLoaded()
}

// Name implements Placer.
func (LeastLoaded) Name() string { return "least-loaded" }

// leastLoaded returns the alive server with the fewest commitments,
// ties to the lower ID: the load tree's root, since the tree breaks ties
// to the lower index and keys a crashed server out. The tree is built on
// the first ask and kept current by reindex from then on. At least one
// server must be up.
func (s *Scheduler) leastLoaded() *server.Server {
	if s.loads.node == nil {
		key := make([]int, len(s.servers))
		for id := range key {
			key[id] = s.loadKey(id)
		}
		s.loads = newWinnerTree(key)
	}
	return s.servers[s.loads.node[1]]
}

// loadKey is server id's key in the load tree: its committed count, or
// keyedOut while it is down.
func (s *Scheduler) loadKey(id int) int {
	if s.downCount > 0 && s.down.has(id) {
		return keyedOut
	}
	return s.committed[id]
}

// alive returns the k-th alive server in ID order, k below the alive
// count. It starts at ID k and shifts one ID up past each crashed ID at
// or below where it stands, so it costs a step per crashed server below
// the answer and one empty lookup on a healthy farm.
func (s *Scheduler) alive(k int) *server.Server {
	for d := s.down.next(0); d >= 0 && d <= k; d = s.down.next(d + 1) {
		k++
	}
	return s.servers[k]
}

// keyedOut is the key of a server a winner tree must not pick: a crashed
// server in the load tree; in a pool side, a crashed server or one on
// the other side.
const keyedOut = math.MaxInt

// winnerTree is a tournament over key: leaves at [size, 2·size), size
// the next power of two ≥ len(key), hold key indices (−1 for padding),
// and each internal node i holds the winner of children 2i and 2i+1, so
// node[1] is the argmin. The right child wins only when strictly less,
// so ties go to the lower index, as a least-load scan in ID order picks. Padding only
// ever sits to the right of real leaves and never wins.
type winnerTree struct {
	key  []int
	node []int32
}

// newWinnerTree builds the tree over key bottom-up. key is shared, not
// copied: keys change through set.
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

// set keys leaf i at k and, if that changed its key, replays the games
// on its path to the root — O(log len(key)).
func (t *winnerTree) set(i, k int) {
	if t.key[i] == k {
		return
	}
	t.key[i] = k
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
// pair it with per-server τ policies. It reads the scheduler's load
// levels and the farm's asleep set, not the servers.
type PackFirst struct{}

// Place implements Placer.
func (PackFirst) Place(s *Scheduler, t *job.Task) *server.Server {
	return s.pack(0)
}

// Name implements Placer.
func (PackFirst) Name() string { return "pack-first" }

// Random places uniformly at random among the alive servers (useful as
// an experimental control).
type Random struct {
	// Next returns a pseudo-random non-negative int; supplied by the
	// caller so placement draws share the experiment's seed discipline.
	Next func(n int) int
}

// Place implements Placer.
func (r Random) Place(s *Scheduler, t *job.Task) *server.Server {
	return s.alive(r.Next(len(s.servers) - s.downCount))
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
func (p *NetworkAware) Place(s *Scheduler, t *job.Task) *server.Server {
	// Awake servers with a free slot first — packed tightly, so unused
	// servers and their switches stay asleep ("whenever there is a need
	// for an additional server to transit to active state...").
	var best *server.Server
	for _, srv := range s.servers {
		if srv.Failed() || srv.Asleep() || s.committed[srv.ID()] >= p.capacity(srv) {
			continue
		}
		if best == nil || s.committed[srv.ID()] > s.committed[best.ID()] {
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
	for _, srv := range s.servers {
		if !srv.Asleep() {
			continue // a crashed server is never asleep
		}
		cost := 0
		h := p.hosts[srv.ID()]
		for _, ep := range endpoints {
			cost += p.net.SleepingSwitchesOnPath(ep, h)
		}
		if best == nil || cost < bestCost ||
			(cost == bestCost && s.committed[srv.ID()] < s.committed[best.ID()]) {
			best = srv
			bestCost = cost
		}
	}
	if best != nil {
		return best
	}
	// Everything is awake and saturated: least loaded.
	return s.leastLoaded()
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
