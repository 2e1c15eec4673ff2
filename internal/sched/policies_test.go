package sched

import (
	"slices"
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

func TestPackFirstConsolidates(t *testing.T) {
	eng, servers := testFarm(t, 6, nil)
	s, err := New(eng, servers, Config{Placer: PackFirst{}})
	if err != nil {
		t.Fatal(err)
	}
	// 4 concurrent jobs fit one 4-core server: all must land on server 0.
	jobs := make([]*job.Job, 4)
	for i := range jobs {
		jobs[i] = singleJob(job.ID(i), 0, 50*simtime.Millisecond)
		j := jobs[i]
		eng.Schedule(0, func() { s.JobArrived(j) })
	}
	eng.RunUntil(simtime.Millisecond)
	for _, j := range jobs {
		if j.Tasks[0].ServerID != 0 {
			t.Errorf("job %d on server %d, want 0", j.ID, j.Tasks[0].ServerID)
		}
	}
	// A 5th concurrent job overflows to server 1.
	j5 := singleJob(5, simtime.Millisecond, 50*simtime.Millisecond)
	eng.Schedule(simtime.Millisecond, func() { s.JobArrived(j5) })
	eng.RunUntil(2 * simtime.Millisecond)
	if j5.Tasks[0].ServerID != 1 {
		t.Errorf("overflow job on server %d, want 1", j5.Tasks[0].ServerID)
	}
	eng.Run()
}

func TestPackFirstAvoidsSleepingServers(t *testing.T) {
	eng, servers := testFarm(t, 3, nil)
	s, err := New(eng, servers, Config{Placer: PackFirst{}})
	if err != nil {
		t.Fatal(err)
	}
	// Server 0 is asleep; a new job must go to server 1 (first awake).
	eng.Schedule(simtime.Millisecond, func() { servers[0].SetDelayTimer(true, 0) })
	j := singleJob(1, simtime.Second, 10*simtime.Millisecond)
	eng.Schedule(simtime.Second, func() { s.JobArrived(j) })
	eng.RunUntil(1100 * simtime.Millisecond)
	if j.Tasks[0].ServerID != 1 {
		t.Errorf("job on server %d, want awake server 1", j.Tasks[0].ServerID)
	}
	eng.Run()
}

func TestCommittedLoadCoversUnsubmittedDAGTasks(t *testing.T) {
	eng, servers := testFarm(t, 2, nil)
	transfer := func(from, to int, bytes int64, done func()) {
		eng.After(100*simtime.Millisecond, done) // slow network
	}
	s, err := New(eng, servers, Config{Placer: PackFirst{}, Transfer: transfer})
	if err != nil {
		t.Fatal(err)
	}
	// A chain of 5 tasks: only the root is submitted immediately, but
	// all 5 must count against the placement load signal.
	j := chainJob(1, 0, 5, 10*simtime.Millisecond, 1<<20)
	eng.Schedule(0, func() { s.JobArrived(j) })
	eng.RunUntil(simtime.Millisecond)
	total := 0
	for _, srv := range servers {
		total += s.Committed(srv.ID())
	}
	if total != 5 {
		t.Errorf("committed load = %d, want 5 (whole DAG)", total)
	}
	eng.Run()
	if s.Committed(0)+s.Committed(1) != 0 {
		t.Error("committed load not released after completion")
	}

	// The pool placers read the same signal: a width-8 scatter-gather
	// job on eight servers spreads its statically placed workers and
	// gather as LeastLoaded does, not all onto the one server whose own
	// queue is empty.
	placed := func(pl Placer) []int {
		eng, servers := testFarm(t, 8, nil)
		s, err := New(eng, servers, Config{Placer: pl})
		if err != nil {
			t.Fatal(err)
		}
		var jobs job.Pool
		j := jobs.ScatterGather(1, 0, 8, simtime.Millisecond, simtime.Millisecond, simtime.Millisecond, 1<<20)
		s.JobArrived(j)
		at := make([]int, len(j.Tasks))
		for i, tk := range j.Tasks {
			at[i] = tk.ServerID
		}
		eng.Run()
		return at
	}
	want := placed(LeastLoaded{})
	for _, pl := range []Placer{NewProvisioner(0, 100), NewAdaptivePool(100, 0, simtime.Millisecond)} {
		if got := placed(pl); !slices.Equal(got, want) {
			t.Errorf("%s placed the scatter-gather tasks on %v, least-loaded on %v", pl.Name(), got, want)
		}
	}
}

func TestOnDispatchHook(t *testing.T) {
	eng, servers := testFarm(t, 2, nil)
	var dispatched []int
	s, err := New(eng, servers, Config{Placer: RoundRobin{}})
	if err != nil {
		t.Fatal(err)
	}
	s.OnDispatch(func(srv *server.Server, tk *job.Task) { dispatched = append(dispatched, srv.ID()) })
	for i := 0; i < 4; i++ {
		j := singleJob(job.ID(i), 0, simtime.Millisecond)
		eng.Schedule(0, func() { s.JobArrived(j) })
	}
	eng.Run()
	if len(dispatched) != 4 {
		t.Fatalf("dispatch hook fired %d times", len(dispatched))
	}
	want := []int{0, 1, 0, 1}
	for i, id := range dispatched {
		if id != want[i] {
			t.Errorf("dispatch %d on server %d, want %d", i, id, want[i])
		}
	}
}

func TestNetworkAwarePrefersCheapWake(t *testing.T) {
	// Dumbbell: two "pods", each one switch with two hosts. When the
	// pod-0 servers are saturated and both pods' spare servers are
	// asleep, the policy must wake the server behind the already-awake
	// switch rather than the one behind the sleeping switch.
	g := topology.NewGraph(false)
	h0 := g.AddNode(topology.Host, "h0")
	h1 := g.AddNode(topology.Host, "h1")
	h2 := g.AddNode(topology.Host, "h2")
	h3 := g.AddNode(topology.Host, "h3")
	s0 := g.AddNode(topology.Switch, "s0")
	s1 := g.AddNode(topology.Switch, "s1")
	for _, pair := range [][2]topology.NodeID{{h0, s0}, {h1, s0}, {h2, s1}, {h3, s1}} {
		if _, err := g.AddLink(pair[0], pair[1], 1e9); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddLink(s0, s1, 1e9); err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	ncfg := network.DefaultConfig(power.DataCenter10G(4))
	ncfg.SwitchSleepIdle = 10 * simtime.Millisecond
	net, err := network.New(eng, g, ncfg)
	if err != nil {
		t.Fatal(err)
	}

	farm := server.NewFarm(eng)
	servers := make([]*server.Server, 4)
	for i := range servers {
		srv, err := farm.Add(i, server.DefaultConfig(power.FourCoreServer()))
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	placer := &NetworkAware{}
	placer.Bind(net, []topology.NodeID{h0, h1, h2, h3})
	s, err := New(eng, servers, Config{Placer: placer})
	if err != nil {
		t.Fatal(err)
	}

	// Let both switches sleep, then saturate server 0 (its switch s0
	// wakes via traffic that we emulate by waking it directly), put
	// servers 1..3 to sleep, and place a new task.
	eng.RunUntil(100 * simtime.Millisecond)
	if net.SleepingSwitchesOnPath(h0, h1) != 1 || net.SleepingSwitchesOnPath(h2, h3) != 1 {
		t.Fatal("switches did not sleep")
	}
	// A long-lived flow between h0 and h1 wakes s0 only and keeps it
	// awake through the placement probe below (100 MB at 1 Gb/s ≈ 0.8 s).
	net.TransferFlow(h0, h1, 100_000_000, nil)
	eng.RunUntil(120 * simtime.Millisecond)
	if net.SleepingSwitchesOnPath(h0, h1) != 0 {
		t.Fatal("s0 still sleeping after flow")
	}
	if net.SleepingSwitchesOnPath(h2, h3) != 1 {
		t.Fatal("s1 unexpectedly awake")
	}
	for _, srv := range servers[1:] {
		srv.SetDelayTimer(true, 0)
	}
	// Saturate server 0: the wake-cost branch triggers once the awake
	// server holds overCommit times its cores.
	for i := 0; i < 4*overCommit; i++ {
		j := singleJob(job.ID(100+i), 200*simtime.Millisecond, simtime.Second)
		eng.Schedule(200*simtime.Millisecond, func() { s.JobArrived(j) })
	}
	probe := singleJob(999, 210*simtime.Millisecond, 10*simtime.Millisecond)
	eng.Schedule(210*simtime.Millisecond, func() { s.JobArrived(probe) })
	eng.RunUntil(220 * simtime.Millisecond)
	// Server 1 (behind awake s0) costs 1 (its own wake); servers 2,3
	// cost 2 (own wake + sleeping s1 on the path from the frontend h0).
	if probe.Tasks[0].ServerID != 1 {
		t.Errorf("probe placed on server %d, want 1 (cheapest wake)", probe.Tasks[0].ServerID)
	}
	eng.RunUntil(30 * simtime.Second)
}

func TestProvisionerSeriesTracking(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	p := NewProvisioner(0.5, 3.0)
	s, err := New(eng, servers, Config{Placer: p})
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	eng.Every(100*simtime.Millisecond, 100*simtime.Millisecond, simtime.Second, func() {
		if p.ActiveServers() > 0 { // the pool fills at the first arrival, t=0
			rows++
		}
	})
	for i := 0; i < 10; i++ {
		j := singleJob(job.ID(i), simtime.Time(i)*100*simtime.Millisecond, simtime.Millisecond)
		eng.Schedule(j.ArriveAt, func() { s.JobArrived(j) })
	}
	eng.RunUntil(simtime.Second)
	if rows != 10 {
		t.Errorf("sampled %d rows, want 10", rows)
	}
}

func TestAdaptivePoolDwellLimitsChurn(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	a := NewAdaptivePool(2.0, 1.0, 10*simtime.Millisecond)
	s, err := New(eng, servers, Config{Placer: a})
	if err != nil {
		t.Fatal(err)
	}
	// A 100ms burst of arrivals triggers at most burst/dwell + 1
	// migrations despite hundreds of evaluation events: the active pool's
	// size, seen after every arrival and every completion, changes at
	// most that often.
	active, changes := a.ActiveServers(), 0
	observe := func() {
		if n := a.ActiveServers(); n != active {
			active, changes = n, changes+1
		}
	}
	s.OnJobArrived(func(*job.Job) { observe() })
	s.OnJobDone(func(*job.Job) { observe() })
	for i := 0; i < 200; i++ {
		j := singleJob(job.ID(i), simtime.Time(i)*500*simtime.Microsecond, 2*simtime.Millisecond)
		eng.Schedule(j.ArriveAt, func() { s.JobArrived(j) })
	}
	eng.Run()
	if changes > 3 {
		t.Errorf("active pool changed size %d times, want <= 3 with 1s dwell", changes)
	}
}
