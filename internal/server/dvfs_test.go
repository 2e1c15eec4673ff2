package server

import (
	"math"
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

func TestDVFSPowerScaling(t *testing.T) {
	prof := power.XeonE5_2680()
	eng, s := newTestServer(t, nil)
	if err := s.SetPState(2); err != nil { // P2: 0.70 speed, 0.343 power
		t.Fatal(err)
	}
	submitSingle(eng, s, 1, simtime.Millisecond, 70*simtime.Millisecond)
	eng.RunUntil(20 * simtime.Millisecond)
	// One busy core at P2 scale; remaining cores in C-states.
	cpu := s.meters.watts[mCPU]
	wantBusyCore := prof.CoreActive * 0.7 * 0.7 * 0.7
	// CPU power = busy core + 9 parked cores + package; parked cores are
	// in C6 by 20ms (governor), package PC0 while any core busy.
	want := wantBusyCore + 9*prof.CoreC6 + prof.PkgPC0
	if math.Abs(cpu-want) > 1e-9 {
		t.Errorf("CPU power at P2 = %v, want %v", cpu, want)
	}
	eng.Run()
}

func TestIntensityWithDVFS(t *testing.T) {
	// A memory-bound task (intensity 0.25) slows down less under DVFS
	// than a compute-bound one.
	eng, s := newTestServer(t, nil)
	if err := s.SetPState(3); err != nil { // 0.55 speed
		t.Fatal(err)
	}
	var done []simtime.Time
	s.Farm().OnTaskDone(func(_ *Server, tk *job.Task) { done = append(done, eng.Now()) })

	jc := job.New(1, 0)
	compute := jc.AddTask(11 * simtime.Millisecond)
	if err := jc.Seal(); err != nil {
		t.Fatal(err)
	}
	jm := job.New(2, 0)
	memory := jm.AddTask(11 * simtime.Millisecond)
	memory.Intensity = 0.25
	if err := jm.Seal(); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(0, func() { s.Submit(compute) })
	eng.Schedule(0, func() { s.Submit(memory) })
	eng.Run()
	if len(done) != 2 {
		t.Fatalf("completions = %d", len(done))
	}
	// Compute-bound: 11ms/0.55 = 20ms. Memory-bound: 11ms*(0.25/0.55+0.75)
	// = 13.25ms. Both gain the C1 exit latency.
	wake := power.XeonE5_2680().WakeC1.Latency
	wantCompute := simtime.FromSeconds(0.011/0.55) + wake
	wantMemory := simtime.FromSeconds(0.011*(0.25/0.55+0.75)) + wake
	// done[0] is the earlier completion (memory-bound).
	if done[0] != wantMemory {
		t.Errorf("memory-bound finished at %v, want %v", done[0], wantMemory)
	}
	if done[1] != wantCompute {
		t.Errorf("compute-bound finished at %v, want %v", done[1], wantCompute)
	}
}

func TestMultipleTaskDoneSubscribers(t *testing.T) {
	eng, s := newTestServer(t, nil)
	var order []string
	s.Farm().OnTaskDone(func(*Server, *job.Task) { order = append(order, "first") })
	s.Farm().OnTaskDone(func(*Server, *job.Task) { order = append(order, "second") })
	submitSingle(eng, s, 1, 0, simtime.Millisecond)
	eng.Run()
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("subscriber order = %v", order)
	}
}

func TestIdleGovernorSkipsDisabledStates(t *testing.T) {
	// C0/C6-only configuration (the Fig. 12 validation setup): the
	// governor must promote straight to C6 even though C1/C3 are
	// disabled.
	eng, s := newTestServer(t, func(c *Config) {
		c.IdleToC1 = -1
		c.IdleToC3 = -1
		c.IdleToC6 = 200 * simtime.Microsecond
	})
	eng.RunUntil(100 * simtime.Microsecond)
	if got := s.cores[0].cstate; got != power.C0 {
		t.Errorf("at 100us: %v, want C0 (C1/C3 disabled)", got)
	}
	eng.RunUntil(300 * simtime.Microsecond)
	if got := s.cores[0].cstate; got != power.C6 {
		t.Errorf("at 300us: %v, want C6", got)
	}
}

func TestGovernorFullyDisabled(t *testing.T) {
	eng, s := newTestServer(t, func(c *Config) {
		c.IdleToC1 = -1
		c.IdleToC3 = -1
		c.IdleToC6 = -1
		c.PkgC6Enabled = false
	})
	eng.RunUntil(simtime.Second)
	for i := 0; i < s.Cores(); i++ {
		if got := s.cores[i].cstate; got != power.C0 {
			t.Errorf("core %d = %v, want C0 forever", i, got)
		}
	}
	if s.PkgC6() {
		t.Errorf("package C6 = %v, want PC0", s.PkgC6())
	}
	// Idle draw must equal the Active-Idle profile figure.
	prof := power.XeonE5_2680()
	if got := s.Power(); math.Abs(got-idleWatts(prof)) > 1e-9 {
		t.Errorf("power = %v, want IdleWatts %v", got, idleWatts(prof))
	}
}
