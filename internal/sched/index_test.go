package sched

import (
	"fmt"
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/power"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// The scans the power policies ran over the farm before the indexes,
// kept as the indexes' oracles.

// where lists the servers ok admits, in ID order.
func where(srvs []*server.Server, ok func(*server.Server) bool) []*server.Server {
	var out []*server.Server
	for _, srv := range srvs {
		if ok(srv) {
			out = append(out, srv)
		}
	}
	return out
}

// aliveOf lists the servers that are up, in ID order: the candidate list
// placement once scanned under faults.
func aliveOf(srvs []*server.Server) []*server.Server {
	return where(srvs, func(srv *server.Server) bool { return !srv.Failed() })
}

// loadScan is LeastLoaded's scan over a candidate list: the least
// committed server, ties to the earliest entry (the lowest ID, lists
// being in ID order), nil for an empty list.
func loadScan(s *Scheduler, candidates []*server.Server) *server.Server {
	var best *server.Server
	bestLoad := 0
	for _, srv := range candidates {
		if l := s.Committed(srv.ID()); best == nil || l < bestLoad {
			best, bestLoad = srv, l
		}
	}
	return best
}

// spareScan is availableServer's and DualTimer's high-pool scan: the
// least committed alive server below hi with a spare slot.
func spareScan(s *Scheduler, hi int) *server.Server {
	return loadScan(s, where(s.servers, func(srv *server.Server) bool {
		return !srv.Failed() && srv.ID() < hi && s.Committed(srv.ID()) < srv.Cores()
	}))
}

// packScan is pack's scan over the candidates with IDs ≥ lo.
func packScan(s *Scheduler, candidates []*server.Server, lo int) *server.Server {
	var best *server.Server
	for _, srv := range candidates {
		if srv.ID() < lo || srv.Asleep() || s.Committed(srv.ID()) >= srv.Cores() {
			continue
		}
		if best == nil || s.Committed(srv.ID()) > s.Committed(best.ID()) {
			best = srv
		}
	}
	if best != nil {
		return best
	}
	for _, srv := range candidates {
		if srv.ID() >= lo && srv.Asleep() {
			return srv
		}
	}
	return loadScan(s, candidates)
}

// poolScan is pool.least's scan: fewest committed tasks among the alive
// candidates on one side of the pool.
func poolScan(p *pool, alive []*server.Server, member bool) *server.Server {
	return loadScan(p.s, where(alive, func(srv *server.Server) bool { return p.has(srv.ID()) == member }))
}

// lawBreach describes the first server holding more pending tasks than
// it has commitments, or is empty. The scheduler cannot reach such a
// state (the pending-within-commitment law), so an oracle whose steps
// drive one tests a scheduler no run has.
func lawBreach(s *Scheduler) string {
	for id, srv := range s.servers {
		if p, c := srv.PendingTasks(), s.committed[id]; p > c {
			return fmt.Sprintf("server %d holds %d pending tasks, %d committed", id, p, c)
		}
	}
	return ""
}

// decommitSpare releases one of server id's commitments if a commitment
// no pending task holds is left — one a statically placed task that was
// never submitted would hold — and so keeps the law.
func decommitSpare(s *Scheduler, id int) {
	if s.committed[id] > s.servers[id].PendingTasks() {
		s.commit(id, -1)
	}
}

// parkedScan is Provisioner's promotion scan: the lowest-ID alive
// server outside the pool.
func parkedScan(p *pool, servers []*server.Server) *server.Server {
	for _, srv := range servers {
		if !p.has(srv.ID()) && !srv.Failed() {
			return srv
		}
	}
	return nil
}

// submitJob gives j one to three independent tasks and hands each to a
// random server, if it is up, as the scheduler dispatches: committed,
// then submitted (Submit records the server on the task). A task whose
// server is down stays unplaced, ServerID −1, so the decommits of a
// dropped job release no commitment it never took.
func submitJob(s *Scheduler, j *job.Job, next func(int) int) {
	for range 1 + next(3) {
		j.AddTask(simtime.Time(1+next(1000)) * simtime.Millisecond)
	}
	if err := j.Seal(); err != nil {
		panic(err)
	}
	s.jobsInSystem++
	for _, task := range j.Tasks {
		task.ServerID = -1
		if on := s.servers[next(len(s.servers))]; !on.Failed() {
			s.commit(on.ID(), 1)
			s.submit(on, task)
		}
	}
}

// mixedFarm builds a scheduler placing with pl over n servers of 4, 1,
// 10 and 20 cores in turn.
func mixedFarm(t *testing.T, n int, orphans OrphanPolicy, pl Placer) (*Scheduler, []*server.Server) {
	t.Helper()
	one := power.FourCoreServer()
	one.Cores = 1
	profiles := []*power.ServerProfile{power.FourCoreServer(), one, power.XeonE5_2680(), power.DualSocketXeon()}
	eng, servers := testFarm(t, n, func(i int, c *server.Config) {
		*c = server.DefaultConfig(profiles[i%len(profiles)])
	})
	s, err := New(eng, servers, Config{Placer: pl, Orphans: orphans})
	if err != nil {
		t.Fatal(err)
	}
	return s, servers
}

// TestPowerPolicyIndexesMatchScan drives random commits, finishes,
// sleeps, wakes, crashes, recoveries, promotions and demotions through
// mixed-core farms of 1, 63, 65 and 130 servers — crashes requeueing
// orphans on two of them and dropping their jobs, siblings aborted, on
// the other two — and after every step holds each index query to its
// scan: availableServer and the DualTimer high-pool pick (leastSpare),
// pack and DualTimer.Place from random bounds, both pool sides and the
// Provisioner's parked pick. It also holds the load levels, the farm's
// asleep set and the pool sides' keys and tree roots to their
// definitions. The load levels are built lazily over commitments that
// predate them.
func TestPowerPolicyIndexesMatchScan(t *testing.T) {
	const steps = 1500
	for i, n := range []int{1, 63, 65, 130} {
		s, servers := mixedFarm(t, n, OrphanPolicy(i%2), PackFirst{})
		eng := s.eng
		x := uint64(n) * 7919
		next := func(m int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int(x>>33) % m
		}
		for range n {
			s.commit(next(n), 1)
		}
		if s.lv.n != nil {
			t.Fatalf("%d servers: levels built before any ask", n)
		}
		var p pool
		p.Start(s)
		d := NewDualTimer(0, simtime.Second, simtime.Millisecond)
		tk := 0
		for step := 0; step < steps; step++ {
			srv := servers[next(n)]
			id := srv.ID()
			switch next(12) {
			case 0:
				s.commit(id, 1)
			case 1:
				decommitSpare(s, id)
			case 2, 3:
				// A job of one to three independent tasks, each on a
				// random alive server, committed and placed there as
				// the scheduler places them.
				tk++
				submitJob(s, job.New(job.ID(tk), eng.Now()), next)
			case 4:
				srv.SetDelayTimer(true, simtime.Time(next(3))*100*simtime.Millisecond)
			case 5:
				srv.WakeUp()
				srv.SetDelayTimer(false, 0)
			case 6:
				if srv.Failed() {
					s.recoverOne(srv)
				} else {
					s.crashOne(srv)
				}
			case 7:
				p.promote(srv)
			case 8:
				p.demote(srv, simtime.Time(next(3))*50*simtime.Millisecond)
			default:
				eng.RunUntil(eng.Now() + simtime.Time(next(1500))*simtime.Millisecond)
			}

			alive := aliveOf(servers)
			if got, want := s.availableServer(), spareScan(s, n); got != want {
				t.Fatalf("%d servers, step %d: availableServer %v, scan %v", n, step, got, want)
			}
			hi := next(n+2) - 1
			if got, want := s.leastSpare(hi), spareScan(s, hi); got != want {
				t.Fatalf("%d servers, step %d: leastSpare(%d) %v, scan %v", n, step, hi, got, want)
			}
			if len(alive) > 0 {
				lo := next(n+2) - 1
				if got, want := s.pack(lo), packScan(s, alive, lo); got != want {
					t.Fatalf("%d servers, step %d: pack(%d) %v, scan %v", n, step, lo, got, want)
				}
				d.HighCount = lo
				want := spareScan(s, lo)
				if want == nil {
					want = packScan(s, alive, lo)
				}
				if got := d.Place(s, nil); got != want {
					t.Fatalf("%d servers, step %d: DualTimer(%d) placed %v, scan %v", n, step, lo, got, want)
				}
			}
			for _, member := range []bool{true, false} {
				if got, want := p.least(member), poolScan(&p, alive, member); got != want {
					t.Fatalf("%d servers, step %d: pool least(%v) %v, scan %v", n, step, member, got, want)
				}
			}
			if got, want := p.firstParked(), parkedScan(&p, servers); got != want {
				t.Fatalf("%d servers, step %d: firstParked %v, scan %v", n, step, got, want)
			}
			checkIndexes(t, s, &p, servers)
			if b := lawBreach(s); b != "" {
				t.Fatalf("%d servers, step %d: %s", n, step, b)
			}
		}
	}
}

// checkIndexes holds every level, the asleep set and the pool's keys and
// tree roots to their definitions.
func checkIndexes(t *testing.T, s *Scheduler, p *pool, servers []*server.Server) {
	t.Helper()
	asleep := s.farm.Asleep()
	for _, srv := range servers {
		id := srv.ID()
		if got := asleep[id/64]&(1<<(id%64)) != 0; got != srv.Asleep() {
			t.Fatalf("server %d: asleep bit %v, Asleep() %v", id, got, srv.Asleep())
		}
		for side, ps := range p.side {
			want := keyedOut
			if !srv.Failed() && p.has(id) == (side == 1) {
				want = s.committed[id]
			}
			if ps.key[id] != want {
				t.Fatalf("server %d: pool side %d key %d, want %d", id, side, ps.key[id], want)
			}
		}
	}
	for side, ps := range p.side {
		root := 0
		for id, k := range ps.key {
			if k < ps.key[root] {
				root = id
			}
		}
		if got := int(ps.node[1]); got != root {
			t.Fatalf("pool side %d: tree root %d, scan %d", side, got, root)
		}
	}
	checkLevels(t, &s.lv, servers, func(srv *server.Server) int {
		if c := s.committed[srv.ID()]; !srv.Failed() && c < srv.Cores() {
			return c
		}
		return -1
	})
}

// checkLevels holds levels to the filing rule at: a server is in level c
// exactly when at(server) is c, its at slot names that level (−1 for
// none), each count matches, and each summary bit says whether its word
// is non-zero.
func checkLevels(t *testing.T, l *levels, servers []*server.Server, at func(*server.Server) int) {
	t.Helper()
	count := make([]int, len(l.n))
	for _, srv := range servers {
		id, c := srv.ID(), at(srv)
		for lc, set := range l.set {
			if got := set.w != nil && set.w[id/64]&(1<<(id%64)) != 0; got != (lc == c) {
				t.Fatalf("load levels: server %d (filed at %d) in level %d = %v", id, c, lc, got)
			}
		}
		if c >= 0 && c < len(count) {
			count[c]++
		} else {
			c = -1
		}
		if l.at != nil && int(l.at[id]) != c {
			t.Fatalf("load levels: server %d (filed at %d) has at slot %d", id, c, l.at[id])
		}
	}
	for c, set := range l.set {
		if l.n[c] != count[c] {
			t.Fatalf("load levels: level %d counts %d, holds %d", c, l.n[c], count[c])
		}
		for k, w := range set.w {
			if got := set.sum[k/64]&(1<<(k%64)) != 0; got != (w != 0) {
				t.Fatalf("load levels: level %d summary bit of word %d is %v over %#x", c, k, got, w)
			}
		}
	}
}

// TestPoolControllersSkipCrashedServers: with the lowest-ID parked
// server crashed, load above MaxLoad promotes the next parked server —
// one that is up — and the adaptive pool promotes an alive server too.
// A promoted crashed server would count in the pool without serving.
func TestPoolControllersSkipCrashedServers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		placer Placer
		p      func(Placer) *pool
	}{
		{"provisioner", NewProvisioner(0.5, 1), func(pl Placer) *pool { return &pl.(*Provisioner).pool }},
		{"adaptive", NewAdaptivePool(1, 0.5, 0), func(pl Placer) *pool { return &pl.(*AdaptivePool).pool }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, servers := testFarm(t, 4, nil)
			s, err := New(eng, servers, Config{Placer: tc.placer})
			if err != nil {
				t.Fatal(err)
			}
			p := tc.p(tc.placer)
			s.startPolicy()
			// Park servers 0 and 1, leaving 2 and 3 in the pool, then
			// crash server 0: the lowest-ID parked server is down.
			p.demote(servers[0], 0)
			p.demote(servers[1], 0)
			s.crashOne(servers[0])
			// Four jobs in system over two members: 2 per server.
			for i := 0; i < 4; i++ {
				s.JobArrived(singleJob(job.ID(i), 0, simtime.Second))
			}
			if !p.has(1) {
				t.Fatalf("server 1 not promoted (%d members)", p.n)
			}
			if p.has(0) {
				t.Fatalf("crashed server 0 promoted into the pool (%d members)", p.n)
			}
			eng.Run()
		})
	}
}

// A pool member that crashes leaves the pool's count: the controllers
// divide the load by alive members only. Four servers start in a
// Provisioner pool, servers 2 and 3 crash, and one job arrives: two
// alive members carry it, 0.5 jobs each, on the MinLoad edge, so the
// controller parks no one. Counting the crashed members, the pool read
// 0.25, parked a third server and then divided by three members with
// one alive.
func TestPoolCountsAliveMembers(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	prov := NewProvisioner(0.5, 1)
	s, err := New(eng, servers, Config{Placer: prov})
	if err != nil {
		t.Fatal(err)
	}
	s.startPolicy()
	s.crashOne(servers[2])
	s.crashOne(servers[3])
	s.JobArrived(singleJob(0, 0, simtime.Second))
	alive := 0
	for id, srv := range servers {
		if prov.has(id) && !srv.Failed() {
			alive++
		}
	}
	if got := prov.ActiveServers(); got != alive || got != 2 {
		t.Errorf("pool counts %d members, %d alive, want 2", got, alive)
	}
	if got := s.LoadPerServer(prov.ActiveServers()); got != 0.5 {
		t.Errorf("LoadPerServer = %g, want 0.5", got)
	}
	s.recoverOne(servers[3])
	if got := prov.ActiveServers(); got != 3 {
		t.Errorf("after server 3 recovers the pool counts %d members, want 3", got)
	}
	eng.Run()
}

// Steady-state placement under each power policy allocates nothing:
// the indexes are read and re-keyed in place.
func TestPowerPolicyPlaceZeroAlloc(t *testing.T) {
	const n = 1024
	for _, pl := range []Placer{PackFirst{}, NewDualTimer(n/2, simtime.Second, simtime.Millisecond),
		NewProvisioner(0.5, 4), NewAdaptivePool(2, 0.5, simtime.Millisecond)} {
		eng, servers := testFarm(t, n, nil)
		s, err := New(eng, servers, Config{Placer: pl})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < n; id += 3 {
			s.commit(id, 1+id%4)
		}
		tk := job.Single(0, 0, simtime.Millisecond).Tasks[0]
		cycle := func() {
			srv, err := s.Select(tk)
			if err != nil {
				t.Fatal(err)
			}
			s.commit(srv.ID(), 1)
			if s.ctrl != nil {
				s.ctrl.Evaluate(s)
			}
			s.commit(srv.ID(), -1)
		}
		for i := 0; i < 2*n; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Fatalf("%s place/commit/decommit allocates %v per cycle, want 0", pl.Name(), allocs)
		}
	}
}
