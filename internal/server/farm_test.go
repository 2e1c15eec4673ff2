package server

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

func farmConfig(mutate func(*Config)) Config {
	cfg := DefaultConfig(power.XeonE5_2680())
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg
}

// The shared sleep planner must reproduce the standalone per-server timer
// behavior exactly: same suspend instants, same wake counts, same
// residency durations, same energy — byte-identical, since goldens pin
// farm-built runs.
func TestFarmMatchesStandaloneSleepTransitions(t *testing.T) {
	const n = 8
	mutate := func(c *Config) {
		c.DelayTimerEnabled = true
		c.DelayTimer = 2 * simtime.Millisecond
	}

	build := func(useFarm bool) (*engine.Engine, []*Server) {
		eng := engine.New()
		srvs := make([]*Server, n)
		var farm *Farm
		if useFarm {
			farm = NewFarm(eng)
		}
		for i := 0; i < n; i++ {
			var s *Server
			var err error
			if useFarm {
				s, err = farm.Add(i, farmConfig(mutate))
			} else {
				s, err = New(i, eng, farmConfig(mutate))
			}
			if err != nil {
				t.Fatal(err)
			}
			srvs[i] = s
		}
		// Staggered bursts exercise arm, disarm-on-submit, re-arm, suspend
		// and wake-from-S3 across overlapping deadlines.
		for i, s := range srvs {
			s := s
			at := simtime.Time(i) * 500 * simtime.Microsecond
			jb := job.Single(job.ID(i), at, simtime.Millisecond)
			eng.Schedule(at, func() { s.Submit(jb.Tasks[0]) })
			// A second task after the server has gone back to sleep forces
			// a wake transition through the planner-managed path.
			at2 := at + 10*simtime.Millisecond
			jb2 := job.Single(job.ID(100+i), at2, simtime.Millisecond)
			eng.Schedule(at2, func() { s.Submit(jb2.Tasks[0]) })
		}
		eng.Run()
		return eng, srvs
	}

	engA, farmSrvs := build(true)
	engB, soloSrvs := build(false)
	if engA.Now() != engB.Now() {
		t.Fatalf("end times differ: farm %v standalone %v", engA.Now(), engB.Now())
	}
	end := engA.Now()
	states := []string{StateActive, power.StateWakeUp, power.StateIdle, power.StatePkgC6, power.StateSysSleep}
	for i := range farmSrvs {
		f, s := farmSrvs[i], soloSrvs[i]
		if f.WakeCount() != s.WakeCount() {
			t.Errorf("server %d wake count: farm %d standalone %d", i, f.WakeCount(), s.WakeCount())
		}
		if f.CompletedTasks() != s.CompletedTasks() {
			t.Errorf("server %d completed: farm %d standalone %d", i, f.CompletedTasks(), s.CompletedTasks())
		}
		for _, st := range states {
			if df, ds := f.Residency().DurationTo(st, end), s.Residency().DurationTo(st, end); df != ds {
				t.Errorf("server %d residency %s: farm %v standalone %v", i, st, df, ds)
			}
		}
		if ef, es := f.EnergyTo(end), s.EnergyTo(end); ef != es {
			t.Errorf("server %d energy: farm %v standalone %v (must be bit-identical)", i, ef, es)
		}
	}
}

// Once every farm server is asleep the queue has drained (Run returns)
// and the planner's one timer is unarmed — the per-idle-server O(1)
// claim. The planner heap may keep stale entries but no event.
func TestFarmAsleepZeroQueuedEvents(t *testing.T) {
	eng := engine.New()
	farm := NewFarm(eng)
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := farm.Add(i, farmConfig(func(c *Config) {
			c.DelayTimerEnabled = true
			c.DelayTimer = simtime.Millisecond
		})); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	for i := 0; i < n; i++ {
		if !farm.Server(i).Asleep() {
			t.Fatalf("server %d not asleep after drain", i)
		}
	}
	if farm.planner.timerSet {
		t.Fatalf("planner timer still armed with empty schedule")
	}
}

// Arm/disarm churn must not grow the planner heap unboundedly: lazy
// deletion is compacted once stale entries dominate.
func TestSleepPlannerCompaction(t *testing.T) {
	eng := engine.New()
	farm := NewFarm(eng)
	s, err := farm.Add(0, farmConfig(func(c *Config) {
		c.DelayTimerEnabled = true
		c.DelayTimer = simtime.Millisecond
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		farm.planner.arm(s, simtime.Time(i))
	}
	if got := len(farm.planner.heap); got > 256 {
		t.Fatalf("planner heap grew to %d entries after re-arm churn, want bounded", got)
	}
	farm.planner.disarm(s)
	if s.sleepArmed {
		t.Fatalf("disarm left server armed")
	}
}

// The farm's incremental aggregates must match per-server recounts at
// completion boundaries and at the end of the run.
func TestFarmAggregatesMatchRecount(t *testing.T) {
	eng := engine.New()
	farm := NewFarm(eng)
	const n = 4
	for i := 0; i < n; i++ {
		mode := QueueUnified
		if i%2 == 1 {
			mode = QueuePerCore
		}
		if _, err := farm.Add(i, farmConfig(func(c *Config) {
			c.QueueMode = mode
			c.DelayTimerEnabled = true
			c.DelayTimer = 3 * simtime.Millisecond
		})); err != nil {
			t.Fatal(err)
		}
	}
	check := func(where string) {
		var pending, completed int64
		for i := 0; i < n; i++ {
			s := farm.Server(i)
			if got, want := s.QueueLen(), s.RecountQueueLen(); got != want {
				t.Fatalf("%s: server %d QueueLen %d != recount %d", where, i, got, want)
			}
			pending += int64(s.PendingTasks())
			completed += s.CompletedTasks()
		}
		if farm.TotalPending() != pending {
			t.Fatalf("%s: TotalPending %d != sum %d", where, farm.TotalPending(), pending)
		}
		if farm.TotalCompleted() != completed {
			t.Fatalf("%s: TotalCompleted %d != sum %d", where, farm.TotalCompleted(), completed)
		}
	}
	tid := 0
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			s := farm.Server(i)
			for k := 0; k < 14; k++ { // oversubscribe: queues + reservations
				tid++
				jb := job.Single(job.ID(tid), eng.Now(), simtime.Millisecond)
				s.Submit(jb.Tasks[0])
			}
		}
		check("after submit burst")
		for eng.Step() {
			if eng.Dispatched%7 == 0 {
				check("mid-drain")
			}
		}
		check("after drain")
	}
	// Fault paths: crash drops all local state; the aggregates must follow.
	sFail := farm.Server(1)
	for k := 0; k < 9; k++ {
		tid++
		jb := job.Single(job.ID(tid), eng.Now(), simtime.Millisecond)
		sFail.Submit(jb.Tasks[0])
	}
	orphans := sFail.Crash()
	if len(orphans) == 0 {
		t.Fatalf("crash returned no orphans")
	}
	check("after crash")
	sFail.Recover()
	check("after recover")
	eng.Run()
	check("final")
}

// With DelayTimerEnabled=false the server must never arm a suspend nor
// touch the planner on the submit path — a full idle→busy→idle cycle in
// steady state allocates nothing server-side.
func TestNoDelayTimerWhenDisabled(t *testing.T) {
	eng, s := newTestServer(t, func(c *Config) { c.DelayTimerEnabled = false })
	jb := job.Single(1, 0, simtime.Millisecond)
	tk := jb.Tasks[0]
	cycle := func() {
		s.Submit(tk)
		eng.Run()
	}
	// Warm pools, residency keys, idle timers, and the event ladder's
	// early growth (bucket windows allocate amortized-rarely as sim time
	// advances; 256 cycles puts that well past the measured region).
	for i := 0; i < 256; i++ {
		cycle()
	}
	if s.sleepArmed {
		t.Fatalf("sleep armed despite DelayTimerEnabled=false")
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("idle→busy→idle cycle allocates %v per cycle with delay timer disabled, want 0", allocs)
	}
}

// SetDelayTimer at runtime (the dual-timer re-partition path) must work
// through the planner in both directions.
func TestSetDelayTimerLazyArm(t *testing.T) {
	eng := engine.New()
	s, err := New(0, eng, farmConfig(nil))
	if err != nil {
		t.Fatal(err)
	}
	if s.sleepArmed {
		t.Fatalf("armed with delay timer disabled")
	}
	s.SetDelayTimer(true, 5*simtime.Millisecond)
	if at := s.farm.planner.armedAt; !s.sleepArmed || at != eng.Now()+5*simtime.Millisecond {
		t.Fatalf("deadline = (%v,%v), want (+5ms,true)", at, s.sleepArmed)
	}
	s.SetDelayTimer(false, 0)
	if s.sleepArmed {
		t.Fatalf("still armed after disable")
	}
	s.SetDelayTimer(true, simtime.Millisecond)
	eng.Run()
	if !s.Asleep() {
		t.Fatalf("server did not suspend")
	}
}
