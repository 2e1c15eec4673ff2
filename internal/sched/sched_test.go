package sched

import (
	"reflect"
	"testing"
	"testing/quick"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// delayTimerOf reads a server's delay-timer setting, which policies
// write and nothing outside the server reads, out of its unexported config.
func delayTimerOf(s *server.Server) (enabled bool, d simtime.Time) {
	cfg := reflect.ValueOf(s).Elem().FieldByName("cfg")
	return cfg.FieldByName("DelayTimerEnabled").Bool(), simtime.Time(cfg.FieldByName("DelayTimer").Int())
}

func testFarm(t *testing.T, n int, mutate func(i int, c *server.Config)) (*engine.Engine, []*server.Server) {
	t.Helper()
	eng := engine.New()
	servers := make([]*server.Server, n)
	for i := 0; i < n; i++ {
		cfg := server.DefaultConfig(power.FourCoreServer())
		if mutate != nil {
			mutate(i, &cfg)
		}
		srv, err := server.New(i, eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	return eng, servers
}

func singleJob(id job.ID, at, size simtime.Time) *job.Job {
	return job.Single(id, at, size)
}

// chainJob builds a linear pipeline of n tasks of the given size, each
// edge carrying bytes.
func chainJob(id job.ID, at simtime.Time, n int, size simtime.Time, bytes int64) *job.Job {
	j := job.New(id, at)
	prev := j.AddTask(size, "")
	for i := 1; i < n; i++ {
		t := j.AddTask(size, "")
		j.Link(prev, t, bytes)
		prev = t
	}
	if err := j.Seal(); err != nil {
		panic(err)
	}
	return j
}

func TestSchedulerBasicCompletion(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	s, err := New(eng, servers, Config{Placer: LeastLoaded{}})
	if err != nil {
		t.Fatal(err)
	}
	var done []*job.Job
	s.OnJobDone(func(j *job.Job) { done = append(done, j) })
	for i := 0; i < 10; i++ {
		j := singleJob(job.ID(i), 0, 5*simtime.Millisecond)
		eng.Schedule(0, func() { s.JobArrived(j) })
	}
	eng.Run()
	if len(done) != 10 {
		t.Fatalf("completed = %d", len(done))
	}
	if s.JobsInSystem() != 0 || s.JobsCompleted() != 10 {
		t.Errorf("in-system=%d completed=%d", s.JobsInSystem(), s.JobsCompleted())
	}
	for _, j := range done {
		if !j.Done() || j.Sojourn() <= 0 {
			t.Errorf("job %d incomplete or zero sojourn", j.ID)
		}
	}
}

func TestRoundRobinDistribution(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	s, err := New(eng, servers, Config{Placer: RoundRobin{}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		j := singleJob(job.ID(i), 0, 50*simtime.Millisecond)
		eng.Schedule(0, func() { s.JobArrived(j) })
	}
	eng.RunUntil(simtime.Millisecond)
	for _, srv := range servers {
		if srv.PendingTasks() != 2 {
			t.Errorf("server %d pending = %d, want 2", srv.ID(), srv.PendingTasks())
		}
	}
	eng.Run()
}

func TestLeastLoadedPicksIdle(t *testing.T) {
	eng, servers := testFarm(t, 3, nil)
	s, err := New(eng, servers, Config{Placer: LeastLoaded{}})
	if err != nil {
		t.Fatal(err)
	}
	// Preload server 0 heavily via pinned placement.
	busy := singleJob(100, 0, simtime.Second)
	eng.Schedule(0, func() {
		busy.Tasks[0].ServerID = 0
		servers[0].Submit(busy.Tasks[0])
	})
	j := singleJob(1, simtime.Millisecond, 5*simtime.Millisecond)
	eng.Schedule(simtime.Millisecond, func() { s.JobArrived(j) })
	eng.RunUntil(2 * simtime.Millisecond)
	if j.Tasks[0].ServerID == 0 {
		t.Error("least-loaded placed on the busy server")
	}
	eng.Run()
}

func TestKindEligibility(t *testing.T) {
	eng, servers := testFarm(t, 4, func(i int, c *server.Config) {
		if i < 2 {
			c.Kinds = []string{"app"}
		} else {
			c.Kinds = []string{"db"}
		}
	})
	s, err := New(eng, servers, Config{Placer: LeastLoaded{}})
	if err != nil {
		t.Fatal(err)
	}
	var finished []*job.Job
	s.OnJobDone(func(j *job.Job) { finished = append(finished, j) })
	j := (*job.Pool)(nil).TwoTier(1, 0, 3*simtime.Millisecond, 7*simtime.Millisecond, 0)
	eng.Schedule(0, func() { s.JobArrived(j) })
	eng.Run()
	if len(finished) != 1 {
		t.Fatal("two-tier job did not finish")
	}
	if app := j.Tasks[0]; app.ServerID > 1 {
		t.Errorf("app task on server %d, want 0/1", app.ServerID)
	}
	if db := j.Tasks[1]; db.ServerID < 2 {
		t.Errorf("db task on server %d, want 2/3", db.ServerID)
	}
}

func TestDAGOrderingWithTransfer(t *testing.T) {
	eng, servers := testFarm(t, 2, nil)
	var transfers []int64
	transfer := func(from, to int, bytes int64, done func()) {
		transfers = append(transfers, bytes)
		eng.After(10*simtime.Millisecond, done) // fixed 10ms "network"
	}
	s, err := New(eng, servers, Config{
		Placer:   Pinned{ServerOf: func(t *job.Task) int { return t.Index % 2 }},
		Transfer: transfer,
	})
	if err != nil {
		t.Fatal(err)
	}
	var doneAt simtime.Time
	s.OnJobDone(func(j *job.Job) { doneAt = eng.Now() })
	j := chainJob(1, 0, 2, 5*simtime.Millisecond, 4096) // t0 -> t1, different servers
	eng.Schedule(0, func() { s.JobArrived(j) })
	eng.Run()
	if len(transfers) != 1 || transfers[0] != 4096 {
		t.Fatalf("transfers = %v", transfers)
	}
	// t0: ~5ms (+C1 wake), transfer 10ms, t1: 5ms (+wake) => ~20ms.
	if doneAt < 20*simtime.Millisecond || doneAt > 21*simtime.Millisecond {
		t.Errorf("job done at %v, want ~20ms", doneAt)
	}
	if j.Tasks[1].StartAt < 15*simtime.Millisecond {
		t.Error("child started before transfer completed")
	}
}

func TestSameServerSkipsTransfer(t *testing.T) {
	eng, servers := testFarm(t, 2, nil)
	calls := 0
	transfer := func(from, to int, bytes int64, done func()) {
		calls++
		eng.After(0, done)
	}
	s, err := New(eng, servers, Config{
		Placer:   Pinned{ServerOf: func(t *job.Task) int { return 0 }},
		Transfer: transfer,
	})
	if err != nil {
		t.Fatal(err)
	}
	j := chainJob(1, 0, 3, simtime.Millisecond, 1<<20)
	eng.Schedule(0, func() { s.JobArrived(j) })
	eng.Run()
	if calls != 0 {
		t.Errorf("transfer called %d times for same-server DAG", calls)
	}
	if !j.Done() {
		t.Error("job not done")
	}
}

func TestGlobalQueueParksAndDrains(t *testing.T) {
	eng, servers := testFarm(t, 2, nil) // 2 servers x 4 cores = 8 slots
	s, err := New(eng, servers, Config{Placer: LeastLoaded{}, UseGlobalQueue: true})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	s.OnJobDone(func(j *job.Job) { count++ })
	// 12 long jobs: 8 dispatch, 4 park in the global queue.
	for i := 0; i < 12; i++ {
		j := singleJob(job.ID(i), 0, 20*simtime.Millisecond)
		eng.Schedule(0, func() { s.JobArrived(j) })
	}
	eng.RunUntil(simtime.Millisecond)
	if got := s.GlobalQueueLen(); got != 4 {
		t.Errorf("global queue = %d, want 4", got)
	}
	// Servers hold no local queue in this mode.
	for _, srv := range servers {
		if srv.QueueLen() != 0 {
			t.Errorf("server %d local queue = %d, want 0", srv.ID(), srv.QueueLen())
		}
	}
	eng.Run()
	if count != 12 || s.GlobalQueueLen() != 0 {
		t.Errorf("completed=%d queue=%d", count, s.GlobalQueueLen())
	}
}

func TestProvisionerShedsAndRestores(t *testing.T) {
	// The provisioner owns the sleep policy: parked servers sleep,
	// active ones stay powered.
	eng, servers := testFarm(t, 8, nil)
	p := NewProvisioner(0.5, 4.0)
	s, err := New(eng, servers, Config{Placer: p})
	if err != nil {
		t.Fatal(err)
	}
	// Light trickle: load per server stays near zero -> shed to MinActive.
	for i := 0; i < 40; i++ {
		j := singleJob(job.ID(i), simtime.Time(i)*50*simtime.Millisecond, simtime.Millisecond)
		eng.Schedule(j.ArriveAt, func() { s.JobArrived(j) })
	}
	eng.Run()
	if p.ActiveServers() != 1 {
		t.Errorf("active after light load = %d, want 1", p.ActiveServers())
	}
	// Burst: 200 jobs at once -> load per server >> max threshold.
	base := eng.Now()
	for i := 0; i < 200; i++ {
		j := singleJob(job.ID(1000+i), base, 10*simtime.Millisecond)
		eng.Schedule(base, func() { s.JobArrived(j) })
	}
	eng.RunUntil(base + simtime.Millisecond)
	if p.ActiveServers() < 2 {
		t.Errorf("active during burst = %d, want > 1", p.ActiveServers())
	}
	eng.Run()
}

func TestDualTimerConfiguresTimers(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	d := NewDualTimer(1, 5*simtime.Second, 100*simtime.Millisecond)
	s, err := New(eng, servers, Config{Placer: d})
	if err != nil {
		t.Fatal(err)
	}
	j := singleJob(0, 0, simtime.Millisecond)
	eng.Schedule(0, func() { s.JobArrived(j) })
	eng.RunUntil(simtime.Millisecond)
	if on, tau := delayTimerOf(servers[0]); !on || tau != 5*simtime.Second {
		t.Errorf("high server timer = %v, %v", on, tau)
	}
	if on, tau := delayTimerOf(servers[3]); !on || tau != 100*simtime.Millisecond {
		t.Errorf("low server timer = %v, %v", on, tau)
	}
	// Light load goes to the high-τ server.
	if j.Tasks[0].ServerID != 0 {
		t.Errorf("job placed on %d, want high-τ server 0", j.Tasks[0].ServerID)
	}
	// Low-τ servers suspend quickly (0.1s timer + 2.5s entry); the
	// high-τ server stays up until its 5s timer.
	eng.RunUntil(4 * simtime.Second)
	if !servers[3].Asleep() {
		t.Error("low-τ server did not sleep")
	}
	if servers[0].Asleep() {
		t.Error("high-τ server slept too early")
	}
	eng.Run()
}

func TestDualTimerSpillsUnderLoad(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	d := NewDualTimer(1, 5*simtime.Second, 100*simtime.Millisecond)
	s, err := New(eng, servers, Config{Placer: d})
	if err != nil {
		t.Fatal(err)
	}
	// 8 simultaneous jobs exceed the 4-core high pool: some must spill.
	spilled := false
	jobs := make([]*job.Job, 8)
	for i := 0; i < 8; i++ {
		jobs[i] = singleJob(job.ID(i), 0, 50*simtime.Millisecond)
		j := jobs[i]
		eng.Schedule(0, func() { s.JobArrived(j) })
	}
	eng.RunUntil(simtime.Millisecond)
	for _, j := range jobs {
		if j.Tasks[0].ServerID != 0 {
			spilled = true
		}
	}
	if !spilled {
		t.Error("no spill to the low-τ pool under saturation")
	}
	eng.Run()
}

func TestAdaptivePoolDemotesAndPromotes(t *testing.T) {
	eng, servers := testFarm(t, 6, nil)
	a := NewAdaptivePool(2.0, 0.3, 50*simtime.Millisecond)
	s, err := New(eng, servers, Config{Placer: a})
	if err != nil {
		t.Fatal(err)
	}
	// Idle trickle: pool shrinks toward MinActive. Arrivals are spaced
	// wider than the migration dwell so one demotion can fire per job.
	for i := 0; i < 30; i++ {
		j := singleJob(job.ID(i), simtime.Time(i)*600*simtime.Millisecond, simtime.Millisecond)
		eng.Schedule(j.ArriveAt, func() { s.JobArrived(j) })
	}
	eng.Run()
	if a.ActiveServers() != 1 {
		t.Errorf("active = %d after light load, want 1", a.ActiveServers())
	}
	// Demoted servers are asleep (τ = 50ms elapsed long ago).
	asleep := 0
	for _, srv := range servers {
		if srv.Asleep() {
			asleep++
		}
	}
	if asleep != 5 {
		t.Errorf("asleep = %d, want 5", asleep)
	}
	// Burst promotes servers back.
	base := eng.Now()
	for i := 0; i < 120; i++ {
		j := singleJob(job.ID(1000+i), base, 20*simtime.Millisecond)
		eng.Schedule(base, func() { s.JobArrived(j) })
	}
	eng.RunUntil(base + 10*simtime.Millisecond)
	if a.ActiveServers() < 2 {
		t.Errorf("active during burst = %d", a.ActiveServers())
	}
	if a.Transitions == 0 {
		t.Error("no pool transitions recorded")
	}
	eng.Run()
}

func TestSchedulerRejectsEmptyFarm(t *testing.T) {
	eng := engine.New()
	if _, err := New(eng, nil, Config{}); err == nil {
		t.Error("empty farm accepted")
	}
}

func TestPlacerNames(t *testing.T) {
	for _, p := range []Placer{RoundRobin{}, LeastLoaded{}, Random{}, Pinned{},
		NewProvisioner(1, 2), NewDualTimer(1, 0, 0), NewAdaptivePool(1, 0.5, 0)} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}

// registryPolicies names a constructor for every policy the scenario
// registry can build (scenario.PlacerSpec.apply). sched cannot import
// scenario, so the table is kept by hand.
var registryPolicies = map[string]func() Placer{
	"least-loaded": func() Placer { return LeastLoaded{} },
	"round-robin":  func() Placer { return RoundRobin{} },
	"pack-first":   func() Placer { return PackFirst{} },
	"random": func() Placer {
		x := uint64(1)
		return Random{Next: func(n int) int { x = x*6364136223846793005 + 1442695040888963407; return int(x>>33) % n }}
	},
	"network-aware": func() Placer { return &NetworkAware{} },
	"adaptive-pool": func() Placer { return NewAdaptivePool(3, 1, 200*simtime.Millisecond) },
	"provisioner":   func() Placer { return NewProvisioner(0.5, 3) },
	"dual-timer":    func() Placer { return NewDualTimer(1, simtime.Second, 10*simtime.Millisecond) },
}

// Property: every admitted job completes under every registry policy,
// any arrival pattern and farm size. The policy is handed over as one
// value — New finds the Controller and Starter in it — after the Bind
// core.Build would give it.
func TestJobConservationProperty(t *testing.T) {
	for name, build := range registryPolicies {
		f := func(seed uint64, nSrv uint8) bool {
			n := int(nSrv%5) + 2
			eng, servers := testFarm(t, n, nil)
			placer := build()
			if b, ok := placer.(Binder); ok {
				g, err := topology.Star{Hosts: n}.Build()
				if err != nil {
					t.Fatal(err)
				}
				net, err := network.New(eng, g, network.DefaultConfig(power.DataCenter10G(n)))
				if err != nil {
					t.Fatal(err)
				}
				b.Bind(net, g.Hosts()[:n])
			}
			s, err := New(eng, servers, Config{Placer: placer})
			if err != nil {
				return false
			}
			count := 0
			s.OnJobDone(func(*job.Job) { count++ })
			x := seed
			at := simtime.Time(0)
			const jobs = 30
			for i := 0; i < jobs; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				at += simtime.Time(x%10) * simtime.Millisecond
				j := singleJob(job.ID(i), at, simtime.Time(1+x%8)*simtime.Millisecond)
				eng.Schedule(at, func() { s.JobArrived(j) })
			}
			eng.Run()
			return count == jobs && s.JobsInSystem() == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// startProbe is a policy that records when its hooks run.
type startProbe struct {
	LeastLoaded
	starts     int
	startAt    simtime.Time
	hookEarly  string // first hook seen before Start, if any
	placements int
}

func (p *startProbe) Start(s *Scheduler) { p.starts++; p.startAt = s.eng.Now() }

func (p *startProbe) early(hook string) {
	if p.starts == 0 && p.hookEarly == "" {
		p.hookEarly = hook
	}
}

func (p *startProbe) Place(s *Scheduler, t *job.Task, c []*server.Server) *server.Server {
	p.early("Place")
	p.placements++
	return p.LeastLoaded.Place(s, t, c)
}
func (p *startProbe) OnJobArrival(*Scheduler, *job.Job) { p.early("OnJobArrival") }
func (p *startProbe) OnTaskDone(*Scheduler, *job.Task)  { p.early("OnTaskDone") }

// The Starter contract: Start runs exactly once, not at New and not at
// t=0 but at the first arrival's timestamp, before that arrival's
// OnJobArrival and before any placement — or at the first Select when a
// caller places before any job arrives.
func TestStartRunsOnceBeforeFirstPlacement(t *testing.T) {
	const first = 7 * simtime.Millisecond
	t.Run("first arrival", func(t *testing.T) {
		eng, servers := testFarm(t, 3, nil)
		p := &startProbe{}
		s, err := New(eng, servers, Config{Placer: p})
		if err != nil {
			t.Fatal(err)
		}
		var startsWhenSubscribersRan int
		s.OnJobArrived(func(*job.Job) { startsWhenSubscribersRan += p.starts })
		for i := 0; i < 5; i++ {
			j := singleJob(job.ID(i), first+simtime.Time(i)*simtime.Millisecond, simtime.Millisecond)
			eng.Schedule(j.ArriveAt, func() { s.JobArrived(j) })
		}
		eng.RunUntil(first - 1)
		if p.starts != 0 {
			t.Fatalf("Start ran %d times before the first arrival (at New or t=0?)", p.starts)
		}
		eng.Run()
		if p.starts != 1 || p.startAt != first {
			t.Errorf("Start ran %d times, last at %v; want once at %v", p.starts, p.startAt, first)
		}
		if p.hookEarly != "" {
			t.Errorf("%s ran before Start", p.hookEarly)
		}
		if p.placements != 5 {
			t.Errorf("placements = %d, want 5", p.placements)
		}
		// Observation subscribers see the first arrival before the policy
		// is started (0), the other four after (1 each).
		if startsWhenSubscribersRan != 4 {
			t.Errorf("OnJobArrived subscribers saw %d started arrivals, want 4", startsWhenSubscribersRan)
		}
	})
	t.Run("first select", func(t *testing.T) {
		eng, servers := testFarm(t, 3, nil)
		p := &startProbe{}
		s, err := New(eng, servers, Config{Placer: p})
		if err != nil {
			t.Fatal(err)
		}
		eng.Schedule(first, func() {
			if _, err := s.Select(singleJob(0, first, simtime.Millisecond).Tasks[0]); err != nil {
				t.Error(err)
			}
		})
		j := singleJob(1, 2*first, simtime.Millisecond)
		eng.Schedule(j.ArriveAt, func() { s.JobArrived(j) })
		eng.Run()
		if p.starts != 1 || p.startAt != first || p.hookEarly != "" {
			t.Errorf("starts=%d at %v early=%q; want once at %v", p.starts, p.startAt, p.hookEarly, first)
		}
	})
}
