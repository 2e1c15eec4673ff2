package sched

import (
	"errors"
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// The placers as they were when Select handed each one the alive servers
// as a candidate list, kept as the oracles of the one placement path.

// lcg is a placement draw source whose next draw can be read ahead.
type lcg struct{ x uint64 }

func (g *lcg) next(n int) int {
	g.x = g.x*6364136223846793005 + 1442695040888963407
	return int(g.x>>33) % n
}

// peek returns the draw next(n) will make, without making it.
func (g *lcg) peek(n int) int {
	c := *g
	return c.next(n)
}

// refPlace is pl's Place body over the alive candidates, ID-ordered and
// non-empty, followed by Select's fallback to the first candidate. It
// moves no state: the round-robin counter is read and the random draw
// peeked, and the adaptive pool's promotion is left to the placer.
func refPlace(s *Scheduler, pl Placer, draws *lcg, t *job.Task, cands []*server.Server) *server.Server {
	var srv *server.Server
	switch p := pl.(type) {
	case RoundRobin:
		srv = cands[s.rrNext%len(cands)]
	case Random:
		srv = cands[draws.peek(len(cands))]
	case LeastLoaded:
		srv = loadScan(s, cands)
	case PackFirst:
		srv = packScan(s, cands, 0)
	case *DualTimer:
		if srv = spareScan(s, p.HighCount); srv == nil {
			srv = packScan(s, cands, p.HighCount)
		}
	case *Provisioner:
		if srv = poolScan(&p.pool, cands, true); srv == nil {
			srv = cands[0]
		}
	case *AdaptivePool:
		if srv = poolScan(&p.pool, cands, true); srv == nil {
			srv = poolScan(&p.pool, cands, false)
		}
	case *NetworkAware:
		srv = netAwareScan(s, p, t, cands)
	default:
		panic("refPlace: no reference for " + pl.Name())
	}
	if srv == nil || srv.Failed() {
		srv = cands[0]
	}
	return srv
}

// netAwareScan is NetworkAware's body over the candidates.
func netAwareScan(s *Scheduler, p *NetworkAware, t *job.Task, cands []*server.Server) *server.Server {
	var best *server.Server
	for _, srv := range cands {
		if srv.Asleep() || s.Committed(srv.ID()) >= p.capacity(srv) {
			continue
		}
		if best == nil || s.Committed(srv.ID()) > s.Committed(best.ID()) {
			best = srv
		}
	}
	if best != nil {
		return best
	}
	endpoints := p.peers(t)
	bestCost := -1
	for _, srv := range cands {
		if !srv.Asleep() {
			continue
		}
		cost := 0
		for _, ep := range endpoints {
			cost += p.net.SleepingSwitchesOnPath(ep, p.hosts[srv.ID()])
		}
		if best == nil || cost < bestCost || (cost == bestCost && s.Committed(srv.ID()) < s.Committed(best.ID())) {
			best, bestCost = srv, cost
		}
	}
	if best != nil {
		return best
	}
	return loadScan(s, cands)
}

// TestPlacersMatchAliveListUnderFaults drives random commits, decommits,
// submitted jobs, crashes, recoveries, sleeps, wakes, controller
// evaluations and placements through mixed-core farms of 1, 3, 63, 65
// and 130 servers under each of the eight scenario placers —
// network-aware on a K=4 fat-tree whose switches sleep — and after every
// step holds Select to the placer's old body over the alive-server list:
// the same server, or the all-down error when that list is empty.
func TestPlacersMatchAliveListUnderFaults(t *testing.T) {
	const steps = 700
	placers := []struct {
		name  string
		build func(n int, draws *lcg) Placer
	}{
		{"leastloaded", func(int, *lcg) Placer { return LeastLoaded{} }},
		{"roundrobin", func(int, *lcg) Placer { return RoundRobin{} }},
		{"random", func(_ int, d *lcg) Placer { return Random{Next: d.next} }},
		{"packfirst", func(int, *lcg) Placer { return PackFirst{} }},
		{"dualtimer", func(n int, _ *lcg) Placer { return NewDualTimer(n/2, simtime.Second, 10*simtime.Millisecond) }},
		{"provisioner", func(int, *lcg) Placer { return NewProvisioner(0.5, 3) }},
		{"adaptive", func(int, *lcg) Placer { return NewAdaptivePool(3, 1, 200*simtime.Millisecond) }},
		{"netaware", func(int, *lcg) Placer { return &NetworkAware{} }},
	}
	for pi, pc := range placers {
		for _, n := range []int{1, 3, 63, 65, 130} {
			draws := &lcg{x: uint64(n)*31 + uint64(pi)}
			pl := pc.build(n, draws)
			s, servers := mixedFarm(t, n, OrphanPolicy((n+pi)%2), pl)
			eng := s.eng
			if b, ok := pl.(Binder); ok {
				g, err := topology.FatTree{K: 4}.Build()
				if err != nil {
					t.Fatal(err)
				}
				ncfg := network.DefaultConfig(power.DataCenter10G(4))
				ncfg.SwitchSleepIdle = 10 * simtime.Millisecond
				net, err := network.New(eng, g, ncfg)
				if err != nil {
					t.Fatal(err)
				}
				hosts := make([]topology.NodeID, n)
				for i := range hosts {
					hosts[i] = g.Hosts()[i%len(g.Hosts())]
				}
				b.Bind(net, hosts)
			}
			s.startPolicy()
			x := uint64(n)*7919 + uint64(pi)
			next := func(m int) int {
				x = x*6364136223846793005 + 1442695040888963407
				return int(x>>33) % m
			}
			tk := 0
			newJob := func(tasks int) *job.Job {
				tk++
				j := job.New(job.ID(tk), eng.Now())
				prev := j.AddTask(simtime.Time(1+next(1000)) * simtime.Millisecond)
				for range tasks - 1 {
					tsk := j.AddTask(simtime.Time(1+next(1000)) * simtime.Millisecond)
					j.Link(prev, tsk, 1000)
					prev = tsk
				}
				if err := j.Seal(); err != nil {
					t.Fatal(err)
				}
				return j
			}
			for step := 0; step < steps; step++ {
				srv := servers[next(n)]
				id := srv.ID()
				switch next(14) {
				case 0:
					s.commit(id, 1)
				case 1:
					decommitSpare(s, id)
				case 2, 3:
					// A job of one to three independent tasks, each on a
					// random alive server.
					submitJob(s, job.New(job.ID(1_000_000+step), eng.Now()), next)
				case 4:
					srv.SetDelayTimer(true, simtime.Time(next(3))*100*simtime.Millisecond)
				case 5:
					srv.WakeUp()
					srv.SetDelayTimer(false, 0)
				case 6, 7:
					if srv.Failed() {
						s.recoverOne(srv)
					} else {
						s.crashOne(srv)
					}
				case 8:
					if s.ctrl != nil {
						s.ctrl.Evaluate(s)
					}
				case 9, 10:
					// A placement that sticks: a one-task job admitted
					// through the scheduler.
					s.JobArrived(newJob(1))
				default:
					eng.RunUntil(eng.Now() + simtime.Time(next(1500))*simtime.Millisecond)
				}
				if b := lawBreach(s); b != "" {
					t.Fatalf("%s, %d servers, step %d: %s", pc.name, n, step, b)
				}

				// The task to place: a root, or the child of a parent
				// placed on a random server (network-aware reads its
				// peers).
				task := newJob(2).Tasks[next(2)]
				if !task.IsRoot() {
					task.In[0].From.ServerID = next(n)
				}
				alive := aliveOf(servers)
				var want *server.Server
				if len(alive) > 0 {
					want = refPlace(s, pl, draws, task, alive)
				}
				got, err := s.Select(task)
				switch {
				case len(alive) == 0:
					var all *AllDownError
					if !errors.As(err, &all) {
						t.Fatalf("%s, %d servers, step %d: every server down, Select gave %v, %v", pc.name, n, step, got, err)
					}
				case err != nil:
					t.Fatalf("%s, %d servers, step %d: Select: %v", pc.name, n, step, err)
				case got != want:
					t.Fatalf("%s, %d servers, step %d (%d down): Select picked server %d, the alive-list body picks %d",
						pc.name, n, step, n-len(alive), got.ID(), want.ID())
				}
			}
		}
	}
}
