package sched

import (
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// The load tree's root must be leastBy's argmin over the whole farm
// after every step — commits, decommits, decommits clamped at zero, and
// crashes and recoveries — at farm sizes that do and do not fill a power
// of two, and Select must return the scan's pick over the alive servers.
// The tree is built lazily over commitments that predate it.
func TestLoadTreeMatchesScan(t *testing.T) {
	const steps = 600
	for _, n := range []int{1, 3, 50, 128, 20_480} {
		eng, servers := testFarm(t, n, nil)
		s, err := New(eng, servers, Config{Placer: LeastLoaded{}})
		if err != nil {
			t.Fatal(err)
		}
		x := uint64(n)
		next := func(m int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int(x>>33) % m
		}
		for i := 0; i < n; i++ {
			s.commit(next(n), 1)
		}
		if s.loads.node != nil {
			t.Fatalf("%d servers: load tree built before any placement", n)
		}
		load := func(srv *server.Server) int { return s.Load(srv) }
		alive := func(srv *server.Server) bool { return !srv.Failed() }
		tk := job.Single(0, 0, simtime.Millisecond).Tasks[0]
		for step := 0; step <= steps; step++ {
			switch id := next(n); next(8) {
			case 0:
				if servers[id].Failed() {
					s.ServersRecovered(servers[id : id+1])
				} else if s.downCount < n-1 {
					s.ServersCrashed(servers[id : id+1])
				}
			case 1, 2, 3:
				s.commit(id, -1)
			default:
				s.commit(id, 1)
			}
			srv, err := s.Select(tk)
			if err != nil {
				t.Fatal(err)
			}
			if want := leastBy(servers, load, alive); srv != want {
				t.Fatalf("%d servers, step %d: Select picked server %d, scan picks %d", n, step, srv.ID(), want.ID())
			}
			if s.loads.node == nil {
				continue // no healthy placement has asked yet
			}
			if got, want := int(s.loads.node[1]), leastBy(servers, load, nil).ID(); got != want {
				t.Fatalf("%d servers, step %d: load tree root is server %d, scan picks %d", n, step, got, want)
			}
		}
		if s.loads.node == nil {
			t.Fatalf("%d servers: no healthy placement built the load tree", n)
		}
	}
}

// Placing on a warmed full farm allocates nothing: the root read and the
// load tree's replay are both in place.
func TestLeastLoadedPlaceZeroAlloc(t *testing.T) {
	const n = 1024
	eng, servers := testFarm(t, n, nil)
	s, err := New(eng, servers, Config{Placer: LeastLoaded{}})
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
		s.commit(srv.ID(), -1)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("least-loaded place/commit/decommit allocates %v per cycle, want 0", allocs)
	}
}
