package sched

import (
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

func TestBlockShards(t *testing.T) {
	m, n := BlockShards(10, 4)
	if n != 3 {
		t.Fatalf("shard count = %d, want 3", n)
	}
	want := []int32{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for i, sh := range m {
		if sh != want[i] {
			t.Fatalf("shardOf[%d] = %d, want %d", i, sh, want[i])
		}
	}
	if _, n := BlockShards(8, 0); n != 8 { // degenerate size clamps to 1
		t.Fatalf("size-0 shard count = %d, want 8", n)
	}
}

func TestSetShardsValidation(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	s, err := New(eng, servers, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetShards([]int32{0, 0, 1}, 2); err == nil {
		t.Errorf("length mismatch accepted")
	}
	if err := s.SetShards([]int32{0, 0, 1, 5}, 2); err == nil {
		t.Errorf("out-of-range shard accepted")
	}
	if err := s.SetShards([]int32{0, 0, 1, 1}, 0); err == nil {
		t.Errorf("zero shard count accepted")
	}
	if err := s.SetShards([]int32{0, 0, 2, 2}, 3); err == nil {
		t.Errorf("empty shard 1 accepted")
	}
	if err := s.SetShards([]int32{0, 0, 1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if s.shardOf == nil {
		t.Fatalf("not sharded after SetShards")
	}
	if err := s.SetShards(nil, 0); err != nil || s.shardOf != nil {
		t.Fatalf("nil shardOf should disable sharding (err=%v)", err)
	}
}

// Shard load sums must track the committed counters through placement,
// completion, and fault paths — commit is the single mutation point.
func TestShardLoadMirrorsCommitted(t *testing.T) {
	eng, servers := testFarm(t, 8, nil)
	s, err := New(eng, servers, Config{Placer: ShardedLeastLoaded{}})
	if err != nil {
		t.Fatal(err)
	}
	shardOf, n := BlockShards(8, 2)
	if err := s.SetShards(shardOf, n); err != nil {
		t.Fatal(err)
	}
	check := func(where string) {
		sums := make([]int64, n)
		for id := range servers {
			sums[shardOf[id]] += int64(s.Committed(id))
		}
		for sh, want := range sums {
			if got := s.shardLoad[sh]; got != want {
				t.Fatalf("%s: shard %d load %d, want %d", where, sh, got, want)
			}
		}
		if got, want := int(s.shardTree[1]), scanShards(sums); got != want {
			t.Fatalf("%s: winner tree root is shard %d, scan picks %d", where, got, want)
		}
	}
	for i := 0; i < 40; i++ {
		j := singleJob(job.ID(i), 0, 5*simtime.Millisecond)
		eng.Schedule(0, func() { s.JobArrived(j) })
	}
	for eng.Step() {
		check("mid-run")
	}
	check("after run")
	// Crash/recover releases and re-takes commitments through commit too.
	for i := 40; i < 56; i++ {
		j := singleJob(job.ID(i), eng.Now(), 50*simtime.Millisecond)
		s.JobArrived(j)
	}
	check("after burst")
	s.ServersCrashed(servers[:2])
	check("after crash")
	s.ServersRecovered(servers[:2])
	check("after recover")
	eng.Run()
	check("final")
}

// scanShards is the linear argmin the winner tree replaced, kept as its
// oracle: the least-loaded shard, ties to the lowest index.
func scanShards(load []int64) int {
	best := 0
	for i := 1; i < len(load); i++ {
		if load[i] < load[best] {
			best = i
		}
	}
	return best
}

// The winner tree's root must be the scan's argmin after every commit —
// increments, decrements, decrements clamped at zero, and a rebuild over
// live commitments — at shard counts that do and do not fill a power of
// two, and Select must return the least-committed member of that shard.
func TestShardTreeMatchesScan(t *testing.T) {
	const per, steps = 2, 2000
	for _, shards := range []int{1, 2, 3, 5, 64, 3200} {
		n := shards * per
		eng, servers := testFarm(t, n, nil)
		s, err := New(eng, servers, Config{Placer: ShardedLeastLoaded{}})
		if err != nil {
			t.Fatal(err)
		}
		x := uint64(shards)
		next := func(m int) int {
			x = x*6364136223846793005 + 1442695040888963407
			return int(x>>33) % m
		}
		ref := make([]int, n)
		commit := func(id, delta int) {
			s.commit(id, delta)
			if ref[id]+delta >= 0 {
				ref[id] += delta
			}
		}
		// Strided shards, so members are not contiguous in ID order, and
		// commitments that predate SetShards.
		shardOf := make([]int32, n)
		for id := range shardOf {
			shardOf[id] = int32(id % shards)
		}
		for i := 0; i < n; i++ {
			commit(next(n), 1)
		}
		tk := job.Single(0, 0, simtime.Millisecond).Tasks[0]
		for step := 0; step <= steps; step++ {
			if step == 0 || step == steps/2 {
				if err := s.SetShards(shardOf, shards); err != nil {
					t.Fatal(err)
				}
			}
			if next(2) == 0 {
				commit(next(n), 1)
			} else {
				commit(next(n), -1)
			}
			sums := make([]int64, shards)
			for id, c := range ref {
				sums[shardOf[id]] += int64(c)
			}
			want := scanShards(sums)
			if got := int(s.shardTree[1]); got != want {
				t.Fatalf("%d shards, step %d: winner tree root is shard %d, scan picks %d", shards, step, got, want)
			}
			wantSrv := -1
			for id := want; id < n; id += shards {
				if wantSrv < 0 || ref[id] < ref[wantSrv] {
					wantSrv = id
				}
			}
			srv, err := s.Select(tk)
			if err != nil {
				t.Fatal(err)
			}
			if srv.ID() != wantSrv {
				t.Fatalf("%d shards, step %d: Select picked server %d, scan picks %d", shards, step, srv.ID(), wantSrv)
			}
		}
	}
}

// Placing on a warmed sharded farm allocates nothing: the shard pick, the
// member scan and the winner-tree replay are all in place.
func TestShardedPlaceZeroAlloc(t *testing.T) {
	const n = 1024
	eng, servers := testFarm(t, n, nil)
	s, err := New(eng, servers, Config{Placer: ShardedLeastLoaded{}})
	if err != nil {
		t.Fatal(err)
	}
	shardOf, shards := BlockShards(n, 40)
	if err := s.SetShards(shardOf, shards); err != nil {
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
		t.Fatalf("sharded place/commit/decommit allocates %v per cycle, want 0", allocs)
	}
}

// With a healthy full-farm candidate set the sharded placer must pick the
// least-committed shard (lowest index on ties), then the least-loaded
// member within it.
func TestShardedLeastLoadedPicksEmptiestShard(t *testing.T) {
	eng, servers := testFarm(t, 6, nil)
	s, err := New(eng, servers, Config{Placer: ShardedLeastLoaded{}})
	if err != nil {
		t.Fatal(err)
	}
	shardOf, n := BlockShards(6, 2)
	if err := s.SetShards(shardOf, n); err != nil {
		t.Fatal(err)
	}
	// Load shards 0 and 1 with long-running jobs so shard 2 is emptiest.
	var placed []int
	s.OnDispatch(func(srv *server.Server, _ *job.Task) { placed = append(placed, srv.ID()) })
	for i := 0; i < 4; i++ {
		s.JobArrived(singleJob(job.ID(i), 0, simtime.Second))
	}
	if len(placed) != 4 {
		t.Fatalf("dispatched %d tasks, want 4", len(placed))
	}
	// First two placements land on the first member of shards 0 and 1? No:
	// argmin over loads with ties to the lowest shard. Sequence: all loads
	// 0 → shard 0, server 0. Then shard 0 has load 1 → shard 1, server 2.
	// Then shard 2, server 4. Then shards tie at 1 → shard 0, server 1
	// (least-loaded member within shard 0).
	want := []int{0, 2, 4, 1}
	for i, id := range placed {
		if id != want[i] {
			t.Fatalf("placement %d landed on server %d, want %v", i, placed, want)
		}
	}
	eng.Run()
}

// Sharded placement must agree with plain LeastLoaded semantics when
// sharding is off or the candidate set is restricted by faults.
func TestShardedFallsBackWithoutShards(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	s, err := New(eng, servers, Config{Placer: ShardedLeastLoaded{}})
	if err != nil {
		t.Fatal(err)
	}
	var placed []int
	s.OnDispatch(func(srv *server.Server, _ *job.Task) { placed = append(placed, srv.ID()) })
	for i := 0; i < 4; i++ {
		s.JobArrived(singleJob(job.ID(i), 0, simtime.Second))
	}
	// No shards: exact LeastLoaded order (0,1,2,3 as loads tie upward).
	want := []int{0, 1, 2, 3}
	for i, id := range placed {
		if id != want[i] {
			t.Fatalf("placement %d landed on %v, want %v", i, placed, want)
		}
	}
	eng.Run()
}

// Under faults the candidate set arrives alive-filtered (len !=
// len(servers)), so the sharded placer must take the fallback and never
// return a dead server.
func TestShardedAvoidsCrashedServers(t *testing.T) {
	eng, servers := testFarm(t, 6, nil)
	s, err := New(eng, servers, Config{Placer: ShardedLeastLoaded{}})
	if err != nil {
		t.Fatal(err)
	}
	shardOf, n := BlockShards(6, 2)
	if err := s.SetShards(shardOf, n); err != nil {
		t.Fatal(err)
	}
	s.ServersCrashed(servers[:2]) // kill all of shard 0
	var placed []int
	s.OnDispatch(func(srv *server.Server, _ *job.Task) { placed = append(placed, srv.ID()) })
	for i := 0; i < 8; i++ {
		s.JobArrived(singleJob(job.ID(i), 0, 10*simtime.Millisecond))
	}
	for _, id := range placed {
		if servers[id].Failed() {
			t.Fatalf("task placed on crashed server %d", id)
		}
		if id < 2 {
			t.Fatalf("task placed on dead shard member %d", id)
		}
	}
	eng.Run()
	if s.JobsCompleted() != 8 {
		t.Fatalf("completed %d of 8 with shard 0 down", s.JobsCompleted())
	}
}
