package server

import (
	"math/rand"
	"reflect"
	"strings"
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

// Once every farm server is asleep the queue has drained (Run returns),
// the planner's one timer is unarmed and its heap is empty — the
// per-idle-server O(1) claim.
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
	if farm.planner.ev.Pending() {
		t.Fatalf("planner timer still armed with empty schedule")
	}
	if got := len(farm.planner.heap); got != 0 {
		t.Fatalf("planner heap holds %d entries with every server asleep", got)
	}
}

// The planner heap holds exactly the armed servers, whatever the order of
// arms, re-arms, disarms and fires. A reference map of armed servers to
// (deadline, arm order) is checked after every operation, with deadlines
// drawn from three values so that ties are common, and every fire must
// suspend exactly the servers the reference says are due.
func TestSleepPlannerHoldsOnlyArmed(t *testing.T) {
	type armed struct {
		at    simtime.Time
		order int
	}
	const n = 16
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		eng := engine.New()
		farm := NewFarm(eng)
		for i := 0; i < n; i++ {
			// The delay timer is off, so only the test arms the planner.
			if _, err := farm.Add(i, farmConfig(nil)); err != nil {
				t.Fatal(err)
			}
		}
		p := &farm.planner
		ref := map[*Server]armed{}
		order := 0
		check := func(op int) {
			t.Helper()
			if len(p.heap) != len(ref) {
				t.Fatalf("seed %d op %d: planner heap holds %d entries for %d armed servers", seed, op, len(p.heap), len(ref))
			}
			for i := 0; i < n; i++ {
				s := farm.Server(i)
				want, ok := ref[s]
				switch j := int(s.plannerIdx()); {
				case !ok && j != -1:
					t.Fatalf("seed %d op %d: unarmed server %d has heap index %d", seed, op, i, j)
				case ok && (j < 0 || j >= len(p.heap) || p.heap[j].id != s.id || p.heap[j].at != want.at):
					t.Fatalf("seed %d op %d: server %d's index %d does not name its entry at %v", seed, op, i, j, want.at)
				}
			}
			// The heap is ordered by the reference's (deadline, arm
			// order), so ties suspend in the order they armed.
			for i := 1; i < len(p.heap); i++ {
				c, pa := ref[farm.Server(int(p.heap[i].id))], ref[farm.Server(int(p.heap[(i-1)/2].id))]
				if c.at < pa.at || c.at == pa.at && c.order < pa.order {
					t.Fatalf("seed %d op %d: heap entry %d sorts before its parent", seed, op, i)
				}
			}
			for a, ra := range ref {
				for b, rb := range ref {
					if (ra.order < rb.order) != (p.heap[a.plannerIdx()].seq < p.heap[b.plannerIdx()].seq) {
						t.Fatalf("seed %d op %d: servers %d and %d tie-break out of arm order", seed, op, a.ID(), b.ID())
					}
				}
			}
		}
		for op := 0; op < 2000; op++ {
			s := farm.Server(r.Intn(n))
			switch k := r.Intn(10); {
			case k < 5:
				// Arm or re-arm only a server that is fully awake, so a
				// due deadline must suspend it.
				if s.suspended || s.entering || s.waking {
					continue
				}
				at := eng.Now() + simtime.Time(r.Intn(3))*simtime.Millisecond
				order++
				p.arm(s, at)
				ref[s] = armed{at, order}
			case k < 7:
				p.disarm(s)
				delete(ref, s)
			default:
				next := eng.Now() + simtime.Millisecond
				for _, a := range ref {
					next = min(next, a.at)
				}
				var was [n]bool
				for i := range was {
					was[i] = farm.Server(i).Asleep()
				}
				eng.RunUntil(next)
				for i := 0; i < n; i++ {
					s := farm.Server(i)
					a, ok := ref[s]
					due := ok && a.at <= next
					if due {
						delete(ref, s)
					}
					if suspended := s.Asleep() && !was[i]; suspended != due {
						t.Fatalf("seed %d op %d: at %v server %d suspended %v, due %v", seed, op, next, i, suspended, due)
					}
					if s.suspended && !s.entering && !s.waking && r.Intn(2) == 0 {
						s.WakeUp()
					}
				}
			}
			check(op)
		}
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
	if s.plannerIdx() >= 0 {
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
	if s.plannerIdx() >= 0 {
		t.Fatalf("armed with delay timer disabled")
	}
	s.SetDelayTimer(true, 5*simtime.Millisecond)
	if at := s.farm.planner.armedAt; s.plannerIdx() < 0 || at != eng.Now()+5*simtime.Millisecond {
		t.Fatalf("deadline = (%v,%v), want (+5ms,true)", at, s.plannerIdx() >= 0)
	}
	s.SetDelayTimer(false, 0)
	if s.plannerIdx() >= 0 {
		t.Fatalf("still armed after disable")
	}
	s.SetDelayTimer(true, simtime.Millisecond)
	eng.Run()
	if !s.Asleep() {
		t.Fatalf("server did not suspend")
	}
}

// TestFarmSharesConfigByValue: servers added with equal configs share
// one copy, whatever the delay timer (each server keeps its own), and
// a difference in any other field — one added to Config later included
// — gets a copy of its own.
func TestFarmSharesConfigByValue(t *testing.T) {
	farm := NewFarm(engine.New())
	base := DefaultConfig(power.FourCoreServer())
	shared := farm.share(&base)
	v := reflect.ValueOf(&base).Elem()
	for i := 0; i < v.NumField(); i++ {
		cfg := base
		f := reflect.ValueOf(&cfg).Elem().Field(i)
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint8:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("Config.%s: no test value for a %v", v.Type().Field(i).Name, f.Kind())
		}
		name := v.Type().Field(i).Name
		got := farm.share(&cfg)
		if delay := strings.HasPrefix(name, "DelayTimer"); delay != (got == shared) {
			t.Errorf("Config.%s differs: shared copy reused %v, want %v", name, got == shared, delay)
		}
		if got.DelayTimerEnabled || got.DelayTimer != 0 {
			t.Errorf("Config.%s differs: the shared copy carries a delay timer", name)
		}
	}
}

// The farm's asleep set is indexed by server ID, so Add refuses an ID
// the set cannot hold, and covers every ID it accepts.
func TestFarmAddRejectsOutOfRangeID(t *testing.T) {
	farm := NewFarm(engine.New())
	for _, id := range []int{-1, 1 << 31} {
		if _, err := farm.Add(id, farmConfig(nil)); err == nil {
			t.Errorf("Add(%d) accepted", id)
		}
	}
	if _, err := farm.Add(130, farmConfig(nil)); err != nil {
		t.Fatal(err)
	}
	if got := len(farm.Asleep()); got != 3 {
		t.Fatalf("asleep set holds %d words for ID 130, want 3", got)
	}
}
