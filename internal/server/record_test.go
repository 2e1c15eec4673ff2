package server

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
)

// TestQueuePopLeavesNoTask: a task that has left a local queue is named
// by no slot of the queue's backing array — a slot that kept it would
// pin a finished task and, with jobs recycled, come to name a task of
// some later job. Both queue modes, more tasks than cores, and a
// suspended server's backlog drained by the wake.
func TestQueuePopLeavesNoTask(t *testing.T) {
	for _, mode := range []QueueMode{QueueUnified, QueuePerCore} {
		eng, s := newTestServer(t, func(c *Config) {
			c.QueueMode = mode
			c.DelayTimerEnabled = true
			c.DelayTimer = simtime.Millisecond
		})
		n := 5 * s.Cores()
		finished := map[*job.Task]bool{}
		s.OnTaskDone(func(_ *Server, tk *job.Task) { finished[tk] = true })
		for round := 0; round < 2; round++ {
			// Round 0 finds the server awake; it then sleeps, so round 1's
			// burst queues behind the wake and is drained by finishWake.
			at := eng.Now()
			for i := 0; i < n; i++ {
				submitSingle(eng, s, job.ID(round*n+i), at, simtime.Millisecond)
			}
			eng.Run()
			if !s.Asleep() {
				t.Fatalf("%v: server did not go back to sleep", mode)
			}
		}
		if len(finished) != 2*n || s.QueueLen() != 0 {
			t.Fatalf("%v: finished %d of %d tasks, queue %d", mode, len(finished), 2*n, s.QueueLen())
		}
		queues := [][]*job.Task{s.queue}
		queued := cap(s.queue)
		for i := range s.cores {
			queues = append(queues, s.cores[i].queue)
			queued += cap(s.cores[i].queue)
		}
		if queued == 0 {
			t.Fatalf("%v: no queue was ever used", mode)
		}
		for _, q := range queues {
			for i, tk := range q[:cap(q)] {
				if tk != nil {
					t.Errorf("%v: queue slot %d still names %s (finished: %v)", mode, i, tk.Name(), finished[tk])
				}
			}
		}
	}
}

// TestPowerCacheMatchesCoreStates drives a small heterogeneous farm
// through everything that moves a core's draw — runs, wakes, idle
// promotions, system sleep, DVFS, crashes, recoveries, aborts — and
// checks after every event that recompute's inputs (the per-core cached
// draws and the waking-core count) equal what a walk over the core
// states gives, and that the metered CPU power is their sum.
func TestPowerCacheMatchesCoreStates(t *testing.T) {
	eng := engine.New()
	farm := NewFarm(eng)
	prof := power.XeonE5_2680()
	for i := 0; i < 6; i++ {
		cfg := DefaultConfig(prof)
		cfg.DelayTimerEnabled, cfg.DelayTimer = i%2 == 0, 3*simtime.Millisecond
		if i%3 == 0 {
			cfg.QueueMode = QueuePerCore
		}
		if _, err := farm.Add(i, cfg); err != nil {
			t.Fatal(err)
		}
	}
	r := rng.New(9)
	var live []*job.Task
	for step := 0; step < 4000; step++ {
		at := simtime.Time(step) * 300 * simtime.Microsecond
		s := farm.Server(r.IntN(len(farm.servers)))
		switch k := r.IntN(20); {
		case k < 14:
			tk := job.Single(job.ID(step), at, simtime.Time(1+r.IntN(3000))*simtime.Microsecond).Tasks[0]
			live = append(live, tk)
			eng.Schedule(at, func() {
				if !s.Failed() {
					s.Submit(tk)
				}
			})
		case k < 16:
			p := r.IntN(len(prof.PStates))
			eng.Schedule(at, func() { s.SetPState(p) })
		case k < 17:
			c, p := r.IntN(s.Cores()), r.IntN(len(prof.PStates))
			eng.Schedule(at, func() { s.SetCorePState(c, p) })
		case k < 18:
			eng.Schedule(at, func() { s.Crash() })
			eng.Schedule(at+2*simtime.Millisecond, func() { s.Recover() })
		case k < 19 && len(live) > 0:
			tk := live[r.IntN(len(live))]
			eng.Schedule(at, func() {
				if tk.State == job.TaskQueued || tk.State == job.TaskRunning {
					farm.Server(tk.ServerID).Abort(tk)
				}
			})
		default:
			eng.Schedule(at, func() { s.ForceSleep() })
		}
	}
	events := 0
	for eng.Step() {
		events++
		for i := 0; i < len(farm.servers); i++ {
			s := farm.Server(i)
			if s.PowerCacheStale() {
				t.Fatalf("event %d at %v: server %d power cache is stale", events, eng.Now(), i)
			}
			if s.failed || s.waking || s.entering || s.sstate != power.S0 {
				continue
			}
			want := 0.0
			for c := range s.cores {
				want += s.cores[c].watts()
			}
			for _, st := range s.sockets {
				want += prof.PkgWatts(st)
			}
			if got := watts(&s.cpuMeter); got != want {
				t.Fatalf("event %d at %v: server %d meters %v W of CPU, core states give %v", events, eng.Now(), i, got, want)
			}
		}
	}
	if events < 10000 {
		t.Fatalf("only %d events ran", events)
	}
}

// TestFarmBlocksKeepAddresses: servers and cores live in blocks the farm
// grows by adding blocks, never by moving one, so the pointers handed
// out by Add, Server and Core stay valid; and every record is its own.
func TestFarmBlocksKeepAddresses(t *testing.T) {
	eng := engine.New()
	farm := NewFarm(eng)
	big, small := power.XeonE5_2680(), power.FourCoreServer()
	var servers []*Server
	var cores []*Core
	for i := 0; i < 3*maxBatch; i++ {
		prof := small
		if i%7 == 0 {
			prof = big // a different core count straddles core blocks
		}
		s, err := farm.Add(i, DefaultConfig(prof))
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		cores = append(cores, &s.cores[0], &s.cores[s.Cores()-1])
	}
	seenCore := map[*Core]bool{}
	for i, s := range servers {
		if farm.Server(i) != s || s.ID() != i {
			t.Fatalf("server %d moved or was overwritten", i)
		}
		if &s.cores[0] != cores[2*i] || &s.cores[s.Cores()-1] != cores[2*i+1] {
			t.Fatalf("server %d: cores moved", i)
		}
		for c := 0; c < s.Cores(); c++ {
			core := &s.cores[c]
			if core.srv != s || core.id != c || seenCore[core] {
				t.Fatalf("server %d core %d is shared or mislabeled", i, c)
			}
			seenCore[core] = true
		}
		if len(s.sockets) != s.prof.SocketCount() {
			t.Fatalf("server %d has %d socket states", i, len(s.sockets))
		}
	}
	// A state change on one server shows on no other.
	servers[1].Submit(job.Single(1, 0, simtime.Millisecond).Tasks[0])
	for i, s := range servers {
		if want := i == 1; (s.BusyCores() > 0) != want || (stateLabels[s.state] == StateActive) != want {
			t.Fatalf("server %d: busy %d queued %d state %s after a submit to server 1", i, s.BusyCores(), s.QueueLen(), stateLabels[s.state])
		}
	}
}
