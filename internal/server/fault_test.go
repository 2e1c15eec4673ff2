package server

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

func faultServer(t *testing.T) (*engine.Engine, *Server) {
	t.Helper()
	eng := engine.New()
	srv, err := New(0, eng, DefaultConfig(power.FourCoreServer()))
	if err != nil {
		t.Fatal(err)
	}
	return eng, srv
}

// TestCrashOrphansAndZeroPower: a crash returns every queued, reserved
// and running task exactly once, cancels the running completions, and
// the server draws nothing while down.
func TestCrashOrphansAndZeroPower(t *testing.T) {
	eng, srv := faultServer(t)
	var finished int
	srv.Farm().OnTaskDone(func(*Server, *job.Task) { finished++ })
	const n = 6 // 4 cores busy + 2 queued
	for i := 0; i < n; i++ {
		j := job.Single(job.ID(i), 0, 100*simtime.Millisecond)
		task := j.Tasks[0]
		eng.Schedule(0, func() { srv.Submit(task) })
	}
	var orphans []*job.Task
	eng.Schedule(50*simtime.Millisecond, func() { orphans = srv.Crash() })
	eng.RunUntil(simtime.Second)

	if len(orphans) != n {
		t.Fatalf("orphans = %d, want %d", len(orphans), n)
	}
	seen := map[*job.Task]bool{}
	for _, task := range orphans {
		if seen[task] {
			t.Errorf("task %s orphaned twice", task.Name())
		}
		seen[task] = true
	}
	if finished != 0 {
		t.Errorf("%d tasks finished despite the crash", finished)
	}
	if !srv.Failed() {
		t.Fatal("server not failed after Crash")
	}
	if got := srv.Power(); got != 0 {
		t.Errorf("failed server draws %g W, want 0", got)
	}
	if srv.BusyCores() != 0 || srv.QueueLen() != 0 || srv.PendingTasks() != 0 {
		t.Errorf("failed server still holds work: busy=%d queue=%d", srv.BusyCores(), srv.QueueLen())
	}
	// Crash is idempotent.
	if again := srv.Crash(); again != nil {
		t.Errorf("second Crash returned %d orphans", len(again))
	}
}

// TestDownResidencyAndEnergyExclusion: the outage bills to the Down
// residency state and contributes zero joules.
func TestDownResidencyAndEnergyExclusion(t *testing.T) {
	eng, srv := faultServer(t)
	eng.Schedule(simtime.Second, func() { srv.Crash() })
	eng.Schedule(3*simtime.Second, func() { srv.Recover() })
	// Drive the clock to 4 s: 1 s up, 2 s down, 1 s up.
	eng.Schedule(4*simtime.Second, func() {})
	eng.Run()
	end := eng.Now()
	fr := srv.Residency().FractionsTo(end)
	if down := fr[power.StateDown]; down < 0.49 || down > 0.51 {
		t.Errorf("Down fraction = %g, want ~0.5", down)
	}
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("residency fractions sum to %g", sum)
	}
	// Energy for 2 up-seconds of idle must be far below 4 s of idle
	// power — and exactly equal to a 2 s idle integral.
	idle2s := srv.EnergyTo(end)
	if idle2s <= 0 {
		t.Fatalf("energy = %g", idle2s)
	}
	perUpSec := idle2s / 2
	// The profile's idle draw is tens of watts; a server billed during
	// its outage would show ~2x this figure.
	if perUpSec <= 0 || idle2s > perUpSec*2*1.001 {
		t.Errorf("energy %g J inconsistent with down-time exclusion", idle2s)
	}
}

// TestRecoverRestoresService: after Recover the server accepts and
// completes work again, from a clean idle state.
func TestRecoverRestoresService(t *testing.T) {
	eng, srv := faultServer(t)
	var finished int
	srv.Farm().OnTaskDone(func(*Server, *job.Task) { finished++ })
	eng.Schedule(0, func() { srv.Crash() })
	eng.Schedule(10*simtime.Millisecond, func() { srv.Recover() })
	j := job.Single(1, 0, 5*simtime.Millisecond)
	task := j.Tasks[0]
	eng.Schedule(20*simtime.Millisecond, func() { srv.Submit(task) })
	eng.Run()
	if srv.Failed() {
		t.Fatal("server still failed after Recover")
	}
	if finished != 1 {
		t.Fatalf("finished = %d, want 1", finished)
	}
	if srv.suspended {
		t.Errorf("suspended %v after recovery, want S0", srv.suspended)
	}
}

// TestCrashVoidsInFlightTransitions: a crash during a suspend (or the
// subsequent wake) leaves no stale transition behind — the crash drops
// the completion's handle, so it fires inert, and a recover rebuilds a
// clean S0.
func TestCrashVoidsInFlightTransitions(t *testing.T) {
	eng := engine.New()
	cfg := DefaultConfig(power.FourCoreServer())
	cfg.DelayTimerEnabled = true
	cfg.DelayTimer = simtime.Millisecond
	srv, err := New(0, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The idle server arms its delay timer at t=0 and starts suspending
	// at 1 ms. SleepEntry latency is long enough that a crash at 1.5 ms
	// lands mid-entry.
	eng.Schedule(simtime.Millisecond+500*simtime.Microsecond, func() {
		if !srv.entering {
			t.Fatal("server not mid-suspend; adjust timing")
		}
		srv.Crash()
	})
	eng.Schedule(5*simtime.Second, func() { srv.Recover() })
	// Probe just after recovery, before the re-armed delay timer can
	// start a fresh (legitimate) suspend.
	eng.Schedule(5*simtime.Second+100*simtime.Microsecond, func() {
		if srv.Failed() || srv.suspended || srv.entering || srv.waking {
			t.Errorf("stale transition state after crash+recover: failed=%v suspended=%v entering=%v waking=%v",
				srv.Failed(), srv.suspended, srv.entering, srv.waking)
		}
	})
	eng.Run()
	// The delay timer re-armed at recovery: the server ends in a fresh,
	// policy-driven S3 — proof the stale pre-crash suspend never landed
	// (it would have fired mid-outage and tripped the failed checks).
	if srv.Failed() {
		t.Error("server failed at end")
	}
}

// TestAbortRunning: aborting a mid-run task cancels its completion and
// the core pulls the next queued task.
func TestAbortRunning(t *testing.T) {
	eng := engine.New()
	prof := power.FourCoreServer()
	prof.Cores = 1
	srv, err := New(0, eng, DefaultConfig(prof))
	if err != nil {
		t.Fatal(err)
	}
	var doneTasks []*job.Task
	var doneAt simtime.Time
	srv.Farm().OnTaskDone(func(_ *Server, task *job.Task) {
		doneTasks = append(doneTasks, task)
		doneAt = eng.Now()
	})
	a := job.Single(1, 0, 100*simtime.Millisecond).Tasks[0]
	b := job.Single(2, 0, 10*simtime.Millisecond).Tasks[0]
	eng.Schedule(0, func() { srv.Submit(a); srv.Submit(b) })
	eng.Schedule(20*simtime.Millisecond, func() {
		if !srv.Abort(a) {
			t.Fatal("Abort did not find the running task")
		}
	})
	eng.Run()
	if len(doneTasks) != 1 || doneTasks[0] != b {
		t.Fatalf("done = %v, want just the queued successor", doneTasks)
	}
	// The abort happened at 20 ms; b started right then and ran 10 ms.
	if doneAt != 30*simtime.Millisecond {
		t.Errorf("b finished at %v, want 30ms (started at the abort)", doneAt)
	}
	if srv.Abort(a) {
		t.Error("second Abort of the same task reported success")
	}
}

// TestAbortQueuedAndReserved covers the non-running Abort paths: a task
// waiting in a per-core queue, a task reserved behind a core wake, and
// a miss on a foreign task.
func TestAbortQueuedAndReserved(t *testing.T) {
	eng := engine.New()
	prof := power.FourCoreServer()
	prof.Cores = 1
	cfg := DefaultConfig(prof)
	cfg.QueueMode = QueuePerCore
	srv, err := New(0, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	running := job.Single(1, 0, 50*simtime.Millisecond).Tasks[0]
	queued := job.Single(2, 0, 50*simtime.Millisecond).Tasks[0]
	foreign := job.Single(3, 0, simtime.Millisecond).Tasks[0]
	eng.Schedule(0, func() {
		srv.Submit(running)
		srv.Submit(queued)
		if !srv.Abort(queued) {
			t.Error("Abort missed the per-core queued task")
		}
		if srv.Abort(foreign) {
			t.Error("Abort found a never-submitted task")
		}
	})
	eng.Run()

	// Reserved path: let the core reach a deep C-state, then submit — the
	// task reserves the core during its wake; abort it mid-wake.
	reserved := job.Single(4, 0, simtime.Millisecond).Tasks[0]
	var completions int
	srv.Farm().OnTaskDone(func(*Server, *job.Task) { completions++ })
	start := eng.Now() + 10*simtime.Millisecond // past IdleToC6
	eng.Schedule(start, func() {
		srv.Submit(reserved)
		if reserved.State != job.TaskQueued {
			t.Fatalf("reserved task state %v", reserved.State)
		}
		if !srv.Abort(reserved) {
			t.Error("Abort missed the reserved task")
		}
	})
	eng.Run()
	if completions != 0 {
		t.Errorf("%d completions after aborting the reservation", completions)
	}
	if srv.BusyCores() != 0 || srv.PendingTasks() != 0 {
		t.Errorf("core stuck after aborted reservation: busy=%d pending=%d",
			srv.BusyCores(), srv.PendingTasks())
	}
}

// TestVoidedSuspendStaysVoidAfterRearm: a suspend voided by a crash does
// nothing when it fires, even after the recovered server has started a
// new suspend. The server enters S3 once, when the new suspend
// completes, and never sleeps while it runs a task.
func TestVoidedSuspendStaysVoidAfterRearm(t *testing.T) {
	eng, srv := faultServer(t)
	var cover modelcov.Map
	srv.Farm().SetCover(&cover)
	var finished int
	srv.Farm().OnTaskDone(func(*Server, *job.Task) { finished++ })
	ms := simtime.Millisecond
	// Suspends take 2.5 s and wakes 0.4 s: the voided suspend would
	// complete at 3.5 s, and a wake the task starts then would put it on
	// a core before the new suspend completes at 4 s.
	eng.Schedule(1000*ms, func() {
		if !srv.ForceSleep() {
			t.Fatal("first suspend not started")
		}
	})
	eng.Schedule(1100*ms, func() { srv.Crash() })
	eng.Schedule(1200*ms, func() { srv.Recover() })
	eng.Schedule(1500*ms, func() {
		if !srv.ForceSleep() {
			t.Fatal("second suspend not started")
		}
	})
	task := job.Single(1, 0, simtime.Second).Tasks[0]
	eng.Schedule(3510*ms, func() {
		if srv.suspended || !srv.entering {
			t.Errorf("at 3.51 s: suspended %v entering %v, want S0 mid-suspend: the voided suspend completed",
				srv.suspended, srv.entering)
		}
		srv.Submit(task)
	})
	for _, at := range []simtime.Time{3950 * ms, 4100 * ms, 4500 * ms, 5000 * ms} {
		eng.Schedule(at, func() {
			if srv.suspended && srv.BusyCores() > 0 {
				t.Errorf("at %v: suspended %v with %d busy cores", at, srv.suspended, srv.BusyCores())
			}
		})
	}
	eng.RunUntil(10 * simtime.Second)
	var entries uint32
	for from := range modelcov.NumSrvStates {
		if from != stSysSleep {
			entries += cover.Count(modelcov.SrvTransition(from, stSysSleep))
		}
	}
	if entries != 1 {
		t.Errorf("server entered S3 %d times, want 1", entries)
	}
	if finished != 1 || srv.WakeCount() != 1 {
		t.Errorf("finished %d tasks after %d wakes, want 1 and 1", finished, srv.WakeCount())
	}
}

// TestWakingCoreOutlivesSuspend: a core whose reservation was aborted
// mid-wake finishes its wake even if the delay timer suspends the server
// meanwhile, so after the server wakes again every core serves a task.
func TestWakingCoreOutlivesSuspend(t *testing.T) {
	eng, srv := faultServer(t)
	ms := simtime.Millisecond
	// By 10 ms every core is in C6 and the package is parked: core 0's
	// wake takes 700 µs, the 1 µs delay timer expires within it.
	eng.Schedule(10*ms, func() {
		task := job.Single(1, 0, ms).Tasks[0]
		srv.Submit(task)
		if !srv.cores[0].waking {
			t.Fatal("core 0 not waking; adjust timing")
		}
		srv.Abort(task)
		srv.SetDelayTimer(true, simtime.Microsecond)
	})
	eng.Schedule(11*ms, func() {
		if !srv.entering {
			t.Fatal("server not suspending; adjust timing")
		}
	})
	eng.Schedule(3*simtime.Second, func() {
		if !srv.suspended {
			t.Fatalf("server suspended %v at 3 s, want S3", srv.suspended)
		}
		for i := range 4 {
			srv.Submit(job.Single(job.ID(10+i), 0, simtime.Second).Tasks[0])
		}
	})
	eng.Schedule(3500*ms, func() {
		if got := srv.BusyCores(); got != 4 {
			t.Errorf("%d cores busy with 4 tasks after the wake, want 4 (core 0 waking: %v)",
				got, srv.cores[0].waking)
		}
	})
	eng.RunUntil(4 * simtime.Second)
}
