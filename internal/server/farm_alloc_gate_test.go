//go:build !race

package server

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

// TestIdleFarmSteadyStateZeroAlloc is the CI gate for the hyperscale
// claim: a farm's idle/asleep population costs O(1) — zero queued engine
// events and zero allocations — while foreground work proceeds, and a
// server's sleep cycle through the shared planner (wake, run, idle, arm,
// fire, suspend) allocates nothing either. The race detector inserts
// allocations, so this runs only in the non-race job.
func TestIdleFarmSteadyStateZeroAlloc(t *testing.T) {
	eng := engine.New()
	farm := NewFarm(eng)
	const n = 1024
	cfg := DefaultConfig(power.XeonE5_2680())
	cfg.DelayTimerEnabled = true
	cfg.DelayTimer = simtime.Millisecond
	for i := 0; i < n; i++ {
		if _, err := farm.Add(i, cfg); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run() // the whole farm promotes to C6/PC6 and suspends
	for i := 0; i < n; i++ {
		if !farm.Server(i).Asleep() {
			t.Fatalf("server %d not asleep", i)
		}
	}

	// Foreground work on one server; the other 1023 asleep servers must
	// contribute no events and no allocations to its steady-state loop.
	hot := farm.Server(0)
	hot.SetDelayTimer(false, 0) // keep it awake between tasks
	jb := job.Single(1, 0, simtime.Millisecond)
	tk := jb.Tasks[0]
	cycle := func() {
		hot.Submit(tk)
		eng.Run()
	}
	for i := 0; i < 256; i++ { // first wake + ladder growth warmup
		cycle()
	}
	// A cycle drains the queue, so it dispatches every event any server
	// holds: the count is the foreground server's own finish and idle-governor
	// promotions.
	before := eng.Dispatched
	cycle()
	if d := eng.Dispatched - before; d > 8 {
		t.Fatalf("steady-state cycle dispatches %d events; want O(1), independent of the %d idle servers", d, n)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state cycle over an idle farm allocates %v per cycle, want 0", allocs)
	}
	for i := 1; i < n; i++ {
		if !farm.Server(i).Asleep() {
			t.Fatalf("idle server %d was disturbed by foreground work", i)
		}
	}

	// A sleep cycle through the planner: a task wakes an asleep server,
	// which runs it, goes idle, arms its delay timer, and suspends when
	// the shared timer fires.
	sleeper := farm.Server(1)
	tk2 := job.Single(2, 0, simtime.Millisecond).Tasks[0]
	sleepCycle := func() {
		sleeper.Submit(tk2)
		eng.Run()
	}
	for i := 0; i < 256; i++ {
		sleepCycle()
	}
	wakes := sleeper.WakeCount()
	if allocs := testing.AllocsPerRun(100, sleepCycle); allocs != 0 {
		t.Fatalf("sleep cycle through the planner allocates %v per cycle, want 0", allocs)
	}
	if d := sleeper.WakeCount() - wakes; d != 101 || !sleeper.Asleep() {
		t.Fatalf("101 sleep cycles woke the server %d times and left it asleep %v; want 101, true", d, sleeper.Asleep())
	}
}
