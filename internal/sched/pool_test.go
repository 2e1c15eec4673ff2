package sched

import (
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// mapPool is the map-based active set the pool policies kept before they
// shared the slice-backed pool; it stays here as the reference.
type mapPool struct {
	active map[int]bool
	n      int
}

func (m *mapPool) promote(id int) bool {
	if m.active[id] {
		return false
	}
	m.active[id] = true
	m.n++
	return true
}

func (m *mapPool) demote(id int) bool {
	if !m.active[id] {
		return false
	}
	m.active[id] = false
	m.n--
	return true
}

// pick is the hand-written scan the policies used: fewest pending tasks
// among members, first one wins a tie.
func (m *mapPool) pick(cands []*server.Server, member bool) *server.Server {
	var best *server.Server
	for _, srv := range cands {
		if m.active[srv.ID()] != member {
			continue
		}
		if best == nil || srv.PendingTasks() < best.PendingTasks() {
			best = srv
		}
	}
	return best
}

// TestPoolMatchesMapReference drives the slice-backed pool and the map
// reference through the same random promote / demote / crash / recover /
// load sequence and holds membership, count, the servers' delay timers
// and every least-loaded pick (over the alive candidates, as Select
// filters them) equal at each step.
func TestPoolMatchesMapReference(t *testing.T) {
	const n = 9
	const tau = 50 * simtime.Millisecond
	for seed := uint64(1); seed <= 20; seed++ {
		eng, servers := testFarm(t, n, nil)
		s, err := New(eng, servers, Config{})
		if err != nil {
			t.Fatal(err)
		}
		var p pool
		p.Start(s)
		ref := mapPool{active: make(map[int]bool)}
		for _, srv := range servers {
			ref.promote(srv.ID())
		}
		x := seed
		next := func(m int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int(x>>33) % m
		}
		for step := 0; step < 400; step++ {
			srv := servers[next(n)]
			switch op := next(6); op {
			case 0, 1:
				if got, want := p.promote(srv), ref.promote(srv.ID()); got != want {
					t.Fatalf("seed %d step %d: promote(%d) = %v, reference %v", seed, step, srv.ID(), got, want)
				}
				if on, _ := delayTimerOf(srv); on {
					t.Fatalf("seed %d step %d: member %d has its delay timer on", seed, step, srv.ID())
				}
			case 2, 3:
				if got, want := p.demote(srv, tau), ref.demote(srv.ID()); got != want {
					t.Fatalf("seed %d step %d: demote(%d) = %v, reference %v", seed, step, srv.ID(), got, want)
				}
				if on, d := delayTimerOf(srv); !srv.Failed() && (!on || d != tau) {
					t.Fatalf("seed %d step %d: demoted %d has delay timer (%v, %v)", seed, step, srv.ID(), on, d)
				}
			case 4:
				if srv.Failed() {
					srv.Recover()
				} else {
					srv.Crash()
				}
			case 5:
				if !srv.Failed() {
					srv.Submit(job.Single(job.ID(step), eng.Now(), simtime.Time(1+next(20))*simtime.Millisecond).Tasks[0])
				}
			}
			eng.RunUntil(eng.Now() + simtime.Time(next(5))*simtime.Millisecond)

			if p.n != ref.n {
				t.Fatalf("seed %d step %d: count %d, reference %d", seed, step, p.n, ref.n)
			}
			var alive []*server.Server
			for _, s := range servers {
				if p.in[s.ID()] != ref.active[s.ID()] {
					t.Fatalf("seed %d step %d: membership of %d differs", seed, step, s.ID())
				}
				if !s.Failed() {
					alive = append(alive, s)
				}
			}
			if got, want := p.least(alive, true), ref.pick(alive, true); got != want {
				t.Fatalf("seed %d step %d: member pick differs", seed, step)
			}
			if got, want := p.least(alive, false), ref.pick(alive, false); got != want {
				t.Fatalf("seed %d step %d: non-member pick differs", seed, step)
			}
		}
	}
}
