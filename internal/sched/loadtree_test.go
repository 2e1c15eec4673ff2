package sched

import (
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/simtime"
)

// The load tree's root must be the least committed alive server, ties
// to the lowest ID, after every step — commits, decommits, decommits
// clamped at zero, commits to crashed servers, and crashes and
// recoveries — at farm sizes that do and do not fill a power of two, and
// Select must return that server. Each key must be the server's
// committed count, or keyedOut while it is down. The tree is built
// lazily, at the first placement, over commitments that predate it.
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
			want := loadScan(s, aliveOf(servers))
			if srv != want {
				t.Fatalf("%d servers, step %d: Select picked server %d, scan picks %d", n, step, srv.ID(), want.ID())
			}
			if got := int(s.loads.node[1]); got != want.ID() {
				t.Fatalf("%d servers, step %d: load tree root is server %d, scan picks %d", n, step, got, want.ID())
			}
			for id, k := range s.loads.key {
				want := s.committed[id]
				if servers[id].Failed() {
					want = keyedOut
				}
				if k != want {
					t.Fatalf("%d servers, step %d: server %d keyed %d, want %d", n, step, id, k, want)
				}
			}
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
