package sched

import (
	"errors"
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// crashOne and recoverOne are the one-server forms of ServersCrashed and
// ServersRecovered the tests below drive.
func (s *Scheduler) crashOne(srv *server.Server) (jobsLost int) {
	return s.ServersCrashed([]*server.Server{srv})
}

func (s *Scheduler) recoverOne(srv *server.Server) { s.ServersRecovered([]*server.Server{srv}) }

// crashFarm builds a farm with a scheduler under the given orphan
// policy and a completion recorder.
func crashFarm(t *testing.T, n int, policy OrphanPolicy) (*Scheduler, *[]job.ID) {
	t.Helper()
	eng, servers := testFarm(t, n, nil)
	s, err := New(eng, servers, Config{Placer: LeastLoaded{}, Orphans: policy})
	if err != nil {
		t.Fatal(err)
	}
	done := &[]job.ID{}
	s.OnJobDone(func(j *job.Job) { *done = append(*done, j.ID) })
	_ = eng
	return s, done
}

// TestOrphanPolicies pins the drop-vs-requeue accounting contract:
// requeued tasks complete exactly once; dropped tasks appear in Lost
// and nowhere else.
func TestOrphanPolicies(t *testing.T) {
	const jobs = 8
	cases := []struct {
		name   string
		policy OrphanPolicy
	}{
		// Requeue: every job survives the crash — orphans restart on the
		// other server and complete exactly once.
		{"requeue", OrphanRequeue},
		// Drop: every job with a task stranded on the crashed server is
		// lost.
		{"drop", OrphanDrop},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s, done := crashFarm(t, 2, tc.policy)
			eng := s.eng
			// Pin every job to server 0 so the crash orphans all of them.
			s.cfg.Placer = Pinned{ServerOf: func(*job.Task) int { return 0 }}
			for i := 0; i < jobs; i++ {
				j := job.Single(job.ID(i), 0, 100*simtime.Millisecond)
				eng.Schedule(0, func() { s.JobArrived(j) })
			}
			eng.Schedule(50*simtime.Millisecond, func() {
				// Un-pin so requeued orphans can go to server 1.
				s.cfg.Placer = LeastLoaded{}
				s.crashOne(s.servers[0])
			})
			eng.Run()

			// All 8 were on server 0: 4 cores ran 100 ms tasks, so at
			// crash time (50 ms) 4 are running and 4 queued; none done.
			if got := s.TasksAborted(); got != int64(jobs) {
				t.Fatalf("TasksAborted = %d, want %d", got, jobs)
			}

			switch tc.policy {
			case OrphanRequeue:
				if len(*done) != jobs {
					t.Fatalf("completed %d jobs, want %d", len(*done), jobs)
				}
				// Exactly once: no duplicate completions.
				seen := map[job.ID]int{}
				for _, id := range *done {
					seen[id]++
				}
				for id, c := range seen {
					if c != 1 {
						t.Errorf("job %d completed %d times", id, c)
					}
				}
				if s.JobsLost() != 0 {
					t.Errorf("JobsLost = %d, want 0", s.JobsLost())
				}
				// All completions happened on the surviving server.
				if got := s.servers[1].CompletedTasks(); got != int64(jobs) {
					t.Errorf("server 1 completed %d tasks, want %d", got, jobs)
				}
				if got := s.servers[0].CompletedTasks(); got != 0 {
					t.Errorf("crashed server completed %d tasks, want 0", got)
				}
			case OrphanDrop:
				if len(*done) != 0 {
					t.Fatalf("completed %d jobs, want 0 (all dropped)", len(*done))
				}
				if s.JobsLost() != jobs {
					t.Errorf("JobsLost = %d, want %d", s.JobsLost(), jobs)
				}
				if s.JobsInSystem() != 0 {
					t.Errorf("JobsInSystem = %d, want 0", s.JobsInSystem())
				}
			}
			// Conservation in both policies: dispatched incarnations are
			// finished, pending, or aborted.
			var finished, pending int64
			for _, srv := range s.servers {
				finished += srv.CompletedTasks()
				pending += int64(srv.PendingTasks())
			}
			if d := s.TasksDispatched(); d != finished+pending+s.TasksAborted() {
				t.Errorf("dispatched %d != finished %d + pending %d + aborted %d",
					d, finished, pending, s.TasksAborted())
			}
		})
	}
}

// TestDroppedTasksNowhereElse: after a drop-policy crash, a lost job's
// tasks are in state TaskLost, never re-dispatched, and the surviving
// server sees none of them.
func TestDroppedTasksNowhereElse(t *testing.T) {
	s, done := crashFarm(t, 2, OrphanDrop)
	eng := s.eng
	s.cfg.Placer = Pinned{ServerOf: func(*job.Task) int { return 0 }}
	j := chainJob(1, 0, 3, 50*simtime.Millisecond, 0) // 3-task chain
	eng.Schedule(0, func() { s.JobArrived(j) })
	eng.Schedule(20*simtime.Millisecond, func() {
		s.cfg.Placer = LeastLoaded{}
		s.crashOne(s.servers[0])
	})
	eng.Run()
	if len(*done) != 0 || s.JobsLost() != 1 {
		t.Fatalf("done=%d lost=%d, want 0/1", len(*done), s.JobsLost())
	}
	for _, task := range j.Tasks {
		if task.State != job.TaskLost {
			t.Errorf("task %s state %v, want lost", task.Name(), task.State)
		}
	}
	if got := s.servers[1].CompletedTasks() + int64(s.servers[1].PendingTasks()); got != 0 {
		t.Errorf("surviving server saw %d tasks of a dropped job", got)
	}
	if !j.Lost() {
		t.Error("job not marked lost")
	}
}

// TestRequeueMidDAG: a chain job whose middle task is orphaned mid-run
// restarts that task on the surviving server and the job completes
// exactly once, with downstream tasks running after it.
func TestRequeueMidDAG(t *testing.T) {
	s, done := crashFarm(t, 2, OrphanRequeue)
	eng := s.eng
	j := chainJob(1, 0, 3, 40*simtime.Millisecond, 0)
	// Pin the whole chain to server 0.
	s.cfg.Placer = Pinned{ServerOf: func(*job.Task) int { return 0 }}
	eng.Schedule(0, func() { s.JobArrived(j) })
	// Crash while task 1 (the middle link) is running: 40 ms in, task 0
	// is done and task 1 started at 40 ms.
	eng.Schedule(60*simtime.Millisecond, func() {
		s.cfg.Placer = LeastLoaded{}
		s.crashOne(s.servers[0])
	})
	eng.Run()
	if len(*done) != 1 || (*done)[0] != 1 {
		t.Fatalf("done = %v, want [1]", *done)
	}
	if !j.Done() {
		t.Fatal("job not done")
	}
	// Task 0 finished pre-crash on server 0; tasks 1 and 2 must have
	// completed on the survivor.
	if j.Tasks[0].ServerID != 0 {
		t.Errorf("task 0 on server %d, want 0", j.Tasks[0].ServerID)
	}
	for _, idx := range []int{1, 2} {
		if j.Tasks[idx].ServerID != 1 {
			t.Errorf("task %d on server %d, want 1 (survivor)", idx, j.Tasks[idx].ServerID)
		}
	}
	if s.TasksAborted() != 1 {
		t.Errorf("TasksAborted = %d, want 1 (the orphaned middle task)", s.TasksAborted())
	}
}

// TestSelectAllDownTypedError: placer selection returns *AllDownError —
// not a panic — when every server is down.
func TestSelectAllDownTypedError(t *testing.T) {
	s, _ := crashFarm(t, 3, OrphanRequeue)
	eng := s.eng
	eng.Schedule(0, func() {
		for _, srv := range s.servers {
			s.crashOne(srv)
		}
		j := job.Single(9, 0, simtime.Millisecond)
		srv, err := s.Select(j.Tasks[0])
		if srv != nil || err == nil {
			t.Fatalf("Select on a dead farm: srv=%v err=%v, want typed error", srv, err)
		}
		var down *AllDownError
		if !errors.As(err, &down) {
			t.Fatalf("error %T is not *AllDownError", err)
		}
	})
	eng.Run()
}

// TestFullFarmCrashAtT0: every server is down before the first arrival.
// Drop loses every job (typed-error path, no panic); requeue parks them
// until a recovery, after which all complete.
func TestFullFarmCrashAtT0(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		s, done := crashFarm(t, 2, OrphanDrop)
		eng := s.eng
		eng.Schedule(0, func() {
			for _, srv := range s.servers {
				s.crashOne(srv)
			}
		})
		for i := 0; i < 5; i++ {
			j := job.Single(job.ID(i), simtime.Millisecond, 10*simtime.Millisecond)
			eng.Schedule(simtime.Millisecond, func() { s.JobArrived(j) })
		}
		eng.Run()
		if len(*done) != 0 || s.JobsLost() != 5 || s.JobsInSystem() != 0 {
			t.Fatalf("done=%d lost=%d open=%d, want 0/5/0", len(*done), s.JobsLost(), s.JobsInSystem())
		}
	})
	t.Run("requeue", func(t *testing.T) {
		s, done := crashFarm(t, 2, OrphanRequeue)
		eng := s.eng
		eng.Schedule(0, func() {
			for _, srv := range s.servers {
				s.crashOne(srv)
			}
		})
		for i := 0; i < 5; i++ {
			j := job.Single(job.ID(i), simtime.Millisecond, 10*simtime.Millisecond)
			eng.Schedule(simtime.Millisecond, func() { s.JobArrived(j) })
		}
		parkedAt := -1
		eng.Schedule(2*simtime.Millisecond, func() { parkedAt = len(s.parked) })
		eng.Schedule(50*simtime.Millisecond, func() { s.recoverOne(s.servers[1]) })
		eng.Run()
		if parkedAt != 5 {
			t.Errorf("parked = %d during the outage, want 5", parkedAt)
		}
		if len(*done) != 5 || s.JobsLost() != 0 {
			t.Fatalf("done=%d lost=%d, want 5/0", len(*done), s.JobsLost())
		}
		if len(s.parked) != 0 {
			t.Errorf("parked = %d at end, want 0", len(s.parked))
		}
	})
}

// TestFullFarmCrashMidRun: the whole farm dies with work in flight.
// Under requeue, in-flight jobs park and finish after recovery; under
// drop they are lost. Either way the counters close.
func TestFullFarmCrashMidRun(t *testing.T) {
	for _, policy := range []OrphanPolicy{OrphanRequeue, OrphanDrop} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			s, done := crashFarm(t, 2, policy)
			eng := s.eng
			const jobs = 6
			for i := 0; i < jobs; i++ {
				j := job.Single(job.ID(i), 0, 100*simtime.Millisecond)
				eng.Schedule(0, func() { s.JobArrived(j) })
			}
			eng.Schedule(30*simtime.Millisecond, func() {
				for _, srv := range s.servers {
					s.crashOne(srv)
				}
			})
			eng.Schedule(200*simtime.Millisecond, func() {
				s.recoverOne(s.servers[0])
			})
			eng.Run()
			total := int64(len(*done)) + s.JobsLost()
			if total != jobs {
				t.Fatalf("done %d + lost %d != %d", len(*done), s.JobsLost(), jobs)
			}
			switch policy {
			case OrphanRequeue:
				if len(*done) != jobs {
					t.Errorf("requeue completed %d, want %d", len(*done), jobs)
				}
			case OrphanDrop:
				if s.JobsLost() != jobs {
					t.Errorf("drop lost %d, want %d", s.JobsLost(), jobs)
				}
			}
			if s.JobsInSystem() != 0 {
				t.Errorf("JobsInSystem = %d at end", s.JobsInSystem())
			}
		})
	}
}

// TestGlobalQueueParksThroughOutage: in global-queue mode a full-farm
// outage parks arrivals in the global queue (no loss under either
// policy); recovery drains it.
func TestGlobalQueueParksThroughOutage(t *testing.T) {
	eng, servers := testFarm(t, 2, nil)
	s, err := New(eng, servers, Config{Placer: LeastLoaded{}, UseGlobalQueue: true})
	if err != nil {
		t.Fatal(err)
	}
	var done int
	s.OnJobDone(func(*job.Job) { done++ })
	eng.Schedule(0, func() {
		for _, srv := range servers {
			s.crashOne(srv)
		}
	})
	for i := 0; i < 4; i++ {
		j := job.Single(job.ID(i), simtime.Millisecond, 5*simtime.Millisecond)
		eng.Schedule(simtime.Millisecond, func() { s.JobArrived(j) })
	}
	queued := -1
	eng.Schedule(2*simtime.Millisecond, func() { queued = s.GlobalQueueLen() })
	eng.Schedule(10*simtime.Millisecond, func() { s.recoverOne(servers[0]) })
	eng.Run()
	if queued != 4 {
		t.Errorf("global queue held %d during the outage, want 4", queued)
	}
	if done != 4 || s.JobsLost() != 0 {
		t.Errorf("done=%d lost=%d, want 4/0", done, s.JobsLost())
	}
}

// TestFaultStringsAndAccessors pins the enum renderings and cheap
// accessors of the fault surface.
func TestFaultStringsAndAccessors(t *testing.T) {
	if OrphanRequeue.String() != "requeue" || OrphanDrop.String() != "drop" ||
		OrphanPolicy(9).String() != "OrphanPolicy(9)" {
		t.Error("OrphanPolicy.String broken")
	}
	// Scenario-codec text forms round-trip; unknowns error.
	for _, p := range []OrphanPolicy{OrphanRequeue, OrphanDrop} {
		b, err := p.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		var back OrphanPolicy = 99
		if err := back.UnmarshalText(b); err != nil || back != p {
			t.Errorf("round trip %v -> %q -> %v (%v)", p, b, back, err)
		}
	}
	if _, err := OrphanPolicy(9).MarshalText(); err == nil {
		t.Error("unknown policy marshaled")
	}
	var p OrphanPolicy
	if err := p.UnmarshalText([]byte("discard")); err == nil {
		t.Error("unknown name unmarshaled")
	}
	if got := (&AllDownError{}).Error(); got != "sched: all servers down" {
		t.Errorf("AllDownError = %q", got)
	}
	s, _ := crashFarm(t, 2, OrphanRequeue)
	if s.downCount != 0 {
		t.Error("fresh farm reports down servers")
	}
	s.eng.Schedule(0, func() {
		s.crashOne(s.servers[0])
		if s.downCount != 1 {
			t.Errorf("DownServers = %d after one crash", s.downCount)
		}
		s.recoverOne(s.servers[0])
		if s.downCount != 0 {
			t.Errorf("DownServers = %d after recovery", s.downCount)
		}
		// Idempotence of both transitions.
		s.recoverOne(s.servers[0])
		if lost := s.crashOne(s.servers[0]); lost != 0 || s.TasksAborted() != 0 {
			t.Error("first crash reported losses on an idle server")
		}
		if lost := s.crashOne(s.servers[0]); lost != 0 || s.TasksAborted() != 0 || s.downCount != 1 {
			t.Error("double crash not a no-op")
		}
		s.recoverOne(s.servers[0])
	})
	s.eng.Run()
}

// TestKillJobScrubsParkedAndGlobalQueue: killing a job whose sibling
// tasks wait in the parked list (and, in global-queue mode, the global
// queue) removes them so they are never dispatched after recovery.
func TestKillJobScrubsParkedAndGlobalQueue(t *testing.T) {
	// Parked list: requeue policy parks two single-task jobs during a
	// full outage; killing one directly must scrub only its task.
	s, done := crashFarm(t, 1, OrphanRequeue)
	eng := s.eng
	j1 := job.Single(1, 0, simtime.Millisecond)
	j2 := job.Single(2, 0, simtime.Millisecond)
	eng.Schedule(0, func() {
		s.crashOne(s.servers[0])
		s.JobArrived(j1)
		s.JobArrived(j2)
		if len(s.parked) != 2 {
			t.Fatalf("parked = %d, want 2", len(s.parked))
		}
		s.killJob(j1, LostNoAliveServer)
		if len(s.parked) != 1 {
			t.Fatalf("parked = %d after kill, want 1", len(s.parked))
		}
	})
	eng.Schedule(simtime.Millisecond, func() { s.recoverOne(s.servers[0]) })
	eng.Run()
	if len(*done) != 1 || (*done)[0] != 2 {
		t.Fatalf("done = %v, want just job 2", *done)
	}
	if s.JobsLost() != 1 {
		t.Fatalf("lost = %d", s.JobsLost())
	}

	// Global queue: same shape with UseGlobalQueue.
	eng2, servers := testFarm(t, 1, nil)
	g, err := New(eng2, servers, Config{UseGlobalQueue: true})
	if err != nil {
		t.Fatal(err)
	}
	var gDone int
	g.OnJobDone(func(*job.Job) { gDone++ })
	k1 := job.Single(1, 0, simtime.Millisecond)
	k2 := job.Single(2, 0, simtime.Millisecond)
	eng2.Schedule(0, func() {
		g.crashOne(g.servers[0])
		g.JobArrived(k1)
		g.JobArrived(k2)
		if g.GlobalQueueLen() != 2 {
			t.Fatalf("globalQ = %d, want 2", g.GlobalQueueLen())
		}
		g.killJob(k1, LostServerCrash)
		if g.GlobalQueueLen() != 1 {
			t.Fatalf("globalQ = %d after kill, want 1", g.GlobalQueueLen())
		}
	})
	eng2.Schedule(simtime.Millisecond, func() { g.recoverOne(g.servers[0]) })
	eng2.Run()
	if gDone != 1 {
		t.Fatalf("global-queue done = %d, want 1", gDone)
	}
}

// TestDualTimerPoolsByIDUnderCrash: DualTimer pool membership follows
// server IDs, not candidate positions — with the high-τ server 0
// crashed, placement prefers surviving high-pool server 1, never
// promoting a low-τ server into the warm pool by slice position.
func TestDualTimerPoolsByIDUnderCrash(t *testing.T) {
	eng, servers := testFarm(t, 4, nil)
	d := NewDualTimer(2, simtime.Second, simtime.Millisecond)
	s, err := New(eng, servers, Config{Placer: d})
	if err != nil {
		t.Fatal(err)
	}
	eng.Schedule(0, func() {
		s.crashOne(servers[0])
		j := job.Single(1, 0, simtime.Millisecond)
		srv, err := s.Select(j.Tasks[0])
		if err != nil {
			t.Fatal(err)
		}
		if srv.ID() != 1 {
			t.Fatalf("placed on server %d, want the surviving high-τ server 1", srv.ID())
		}
	})
	eng.Run()
}
