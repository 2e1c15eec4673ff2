package server

import (
	"math"
	"testing"
	"testing/quick"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

func newTestServer(t *testing.T, mutate func(*Config)) (*engine.Engine, *Server) {
	t.Helper()
	eng := engine.New()
	cfg := DefaultConfig(power.XeonE5_2680())
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(0, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, s
}

// idleWatts is the closed-form "Active-Idle" draw (S0, every core idle in
// C0, no package parked) and sleepWatts the S3 draw the tests hold the
// model's recompute to.
func idleWatts(p *power.ServerProfile) float64 {
	return float64(p.Cores)*p.CoreIdle + float64(p.SocketCount())*p.PkgPC0 + p.DRAMIdle + p.PlatformS0
}

func sleepWatts(p *power.ServerProfile) float64 { return p.DRAMSelfRefresh + p.PlatformS3 }

func submitSingle(eng *engine.Engine, s *Server, id job.ID, at, size simtime.Time) *job.Job {
	j := job.Single(id, at, size)
	eng.Schedule(at, func() { s.Submit(j.Tasks[0]) })
	return j
}

func TestSingleTaskExecution(t *testing.T) {
	eng, s := newTestServer(t, nil)
	j := submitSingle(eng, s, 1, 0, 5*simtime.Millisecond)
	var done []simtime.Time
	s.OnTaskDone(func(_ *Server, tk *job.Task) { done = append(done, eng.Now()) })
	eng.Run()
	if len(done) != 1 {
		t.Fatalf("completions = %d", len(done))
	}
	// The idle governor promotes cores to C1 via a zero-delay event that
	// fires before the t=0 submission, so the task pays the C1 exit.
	want := 5*simtime.Millisecond + power.XeonE5_2680().WakeC1.Latency
	if done[0] != want {
		t.Errorf("finished at %v, want %v", done[0], want)
	}
	if j.Tasks[0].State != job.TaskRunning {
		// The server marks it running; job completion bookkeeping is the
		// data center layer's job, so state stays running here.
		t.Logf("state = %v", j.Tasks[0].State)
	}
	if s.CompletedTasks() != 1 {
		t.Errorf("CompletedTasks = %d", s.CompletedTasks())
	}
}

func TestQueueingFIFO(t *testing.T) {
	eng, s := newTestServer(t, nil)
	// Saturate all 10 cores plus 3 queued tasks.
	var order []job.ID
	s.OnTaskDone(func(_ *Server, tk *job.Task) { order = append(order, tk.Job.ID) })
	for i := 0; i < 13; i++ {
		submitSingle(eng, s, job.ID(i), 0, 10*simtime.Millisecond)
	}
	eng.Run()
	if len(order) != 13 {
		t.Fatalf("completions = %d", len(order))
	}
	// Queued tasks (10, 11, 12) must finish after the first wave, in order.
	last3 := order[10:]
	if last3[0] != 10 || last3[1] != 11 || last3[2] != 12 {
		t.Errorf("queued completion order = %v", last3)
	}
}

func TestBusyCoresAndPending(t *testing.T) {
	eng, s := newTestServer(t, nil)
	for i := 0; i < 12; i++ {
		submitSingle(eng, s, job.ID(i), 0, 10*simtime.Millisecond)
	}
	eng.RunUntil(simtime.Millisecond)
	if s.BusyCores() != 10 {
		t.Errorf("BusyCores = %d, want 10", s.BusyCores())
	}
	if s.QueueLen() != 2 {
		t.Errorf("QueueLen = %d, want 2", s.QueueLen())
	}
	if s.PendingTasks() != 12 {
		t.Errorf("PendingTasks = %d, want 12", s.PendingTasks())
	}
	eng.Run()
	if s.PendingTasks() != 0 {
		t.Errorf("PendingTasks after drain = %d", s.PendingTasks())
	}
}

func TestIdleGovernorPromotion(t *testing.T) {
	eng, s := newTestServer(t, nil)
	// Fresh server: cores idle at t=0. Default thresholds: C1 at 0,
	// C3 at 100us, C6 at 1ms.
	eng.RunUntil(50 * simtime.Microsecond)
	if got := s.cores[0].cstate; got != power.C1 {
		t.Errorf("at 50us: %v, want C1", got)
	}
	eng.RunUntil(500 * simtime.Microsecond)
	if got := s.cores[0].cstate; got != power.C3 {
		t.Errorf("at 500us: %v, want C3", got)
	}
	eng.RunUntil(2 * simtime.Millisecond)
	if got := s.cores[0].cstate; got != power.C6 {
		t.Errorf("at 2ms: %v, want C6", got)
	}
	if s.PkgState() != power.PC6 {
		t.Errorf("package = %v, want PC6 once all cores are C6", s.PkgState())
	}
}

func TestWakeLatencyFromDeepSleep(t *testing.T) {
	eng, s := newTestServer(t, nil)
	prof := power.XeonE5_2680()
	var doneAt simtime.Time
	s.OnTaskDone(func(_ *Server, tk *job.Task) { doneAt = eng.Now() })
	// Let cores fall to C6 + PkgC6, then submit.
	submitSingle(eng, s, 1, 10*simtime.Millisecond, 5*simtime.Millisecond)
	eng.Run()
	wake := prof.WakeC6.Latency + prof.WakePC6.Latency
	want := 10*simtime.Millisecond + wake + 5*simtime.Millisecond
	if doneAt != want {
		t.Errorf("finished at %v, want %v (wake %v)", doneAt, want, wake)
	}
}

func TestDelayTimerEntersSleep(t *testing.T) {
	eng, s := newTestServer(t, func(c *Config) {
		c.DelayTimerEnabled = true
		c.DelayTimer = 100 * simtime.Millisecond
	})
	eng.RunUntil(99 * simtime.Millisecond)
	if s.sstate != power.S0 || s.entering {
		t.Errorf("slept before timer expiry: %v", s.sstate)
	}
	// Timer expiry starts the suspend transition (3 s on this profile).
	eng.RunUntil(101 * simtime.Millisecond)
	if !s.entering {
		t.Error("suspend not started after timer expiry")
	}
	if !s.Asleep() {
		t.Error("Asleep() = false during suspend")
	}
	eng.RunUntil(3200 * simtime.Millisecond)
	if s.sstate != power.S3 {
		t.Errorf("state = %v, want S3 after suspend completes", s.sstate)
	}
	if !s.Asleep() {
		t.Error("Asleep() = false")
	}
}

func TestDelayTimerCanceledByArrival(t *testing.T) {
	eng, s := newTestServer(t, func(c *Config) {
		c.DelayTimerEnabled = true
		c.DelayTimer = 100 * simtime.Millisecond
	})
	// Arrival at 50ms restarts the cycle: busy 10ms, then idle again.
	submitSingle(eng, s, 1, 50*simtime.Millisecond, 10*simtime.Millisecond)
	eng.RunUntil(140 * simtime.Millisecond)
	if s.sstate != power.S0 || s.entering {
		t.Error("slept too early; timer should restart after the task")
	}
	// Idle from ~60ms; suspend starts at ~160ms, S3 after the 3s entry.
	eng.RunUntil(170 * simtime.Millisecond)
	if !s.entering {
		t.Error("suspend not started after restarted timer")
	}
	eng.RunUntil(4 * simtime.Second)
	if s.sstate != power.S3 {
		t.Errorf("state = %v, want S3", s.sstate)
	}
}

func TestSleepWakeRoundTrip(t *testing.T) {
	eng, s := newTestServer(t, func(c *Config) {
		c.DelayTimerEnabled = true
		c.DelayTimer = 10 * simtime.Millisecond
	})
	prof := power.XeonE5_2680()
	var doneAt simtime.Time
	s.OnTaskDone(func(_ *Server, tk *job.Task) { doneAt = eng.Now() })
	// Suspend starts at 10ms (3s entry). The 1s arrival lands mid-entry:
	// it must wait for entry to finish, then the full resume.
	submitSingle(eng, s, 1, simtime.Second, 5*simtime.Millisecond)
	eng.RunUntil(500 * simtime.Millisecond)
	if !s.entering {
		t.Fatalf("not suspending before arrival: %v", s.sstate)
	}
	eng.Run()
	// entry completes at 10ms+3s, resume 1.5s, core C6 exit, 5ms task.
	want := 10*simtime.Millisecond + prof.SleepEntry.Latency +
		prof.WakeS3.Latency + prof.WakeC6.Latency + 5*simtime.Millisecond
	if doneAt != want {
		t.Errorf("finished at %v, want %v", doneAt, want)
	}
	if s.WakeCount() != 1 {
		t.Errorf("WakeCount = %d", s.WakeCount())
	}
	// With the delay timer still armed, the drained server re-suspends.
	if s.sstate != power.S3 {
		t.Errorf("state after drain = %v, want re-slept S3", s.sstate)
	}
}

func TestResidencyLabels(t *testing.T) {
	eng, s := newTestServer(t, func(c *Config) {
		c.DelayTimerEnabled = true
		c.DelayTimer = 50 * simtime.Millisecond
	})
	submitSingle(eng, s, 1, 0, 20*simtime.Millisecond)
	end := 10 * simtime.Second
	eng.RunUntil(end)
	res := s.Residency()
	approx := func(got, want simtime.Time) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d <= 10*simtime.Microsecond // C1 exit offsets
	}
	active := res.DurationTo(StateActive, end)
	if !approx(active, 20*simtime.Millisecond) {
		t.Errorf("Active = %v, want ~20ms", active)
	}
	// Task until ~20ms, idle 50ms, suspend entry 3s (counted as
	// Wake-up), then S3 until 10s ≈ 6.93s.
	wake := res.DurationTo(StateWakeUp, end)
	if !approx(wake, 3*simtime.Second) {
		t.Errorf("Wake-up = %v, want ~3s (suspend entry)", wake)
	}
	sleep := res.DurationTo(StateSysSleep, end)
	if !approx(sleep, end-3070*simtime.Millisecond) {
		t.Errorf("SysSleep = %v, want ~%v", sleep, end-3070*simtime.Millisecond)
	}
	// Fractions sum to 1.
	sum := 0.0
	for _, f := range res.FractionsTo(end) {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum = %v", sum)
	}
}

func TestPowerLevels(t *testing.T) {
	prof := power.XeonE5_2680()
	eng, s := newTestServer(t, func(c *Config) {
		c.DelayTimerEnabled = true
		c.DelayTimer = 50 * simtime.Millisecond
	})
	// t=0: all cores idle in C0 (becomeIdle promotes to C1 at once
	// because IdleToC1 = 0, via a queued zero-delay event).
	idle0 := s.Power()
	if idle0 != idleWatts(prof) {
		t.Errorf("initial power = %v, want IdleWatts %v", idle0, idleWatts(prof))
	}
	// While running one task, power must exceed deep idle.
	submitSingle(eng, s, 1, simtime.Millisecond, 20*simtime.Millisecond)
	eng.RunUntil(10 * simtime.Millisecond)
	busy := s.Power()
	wantBusy := prof.CoreActive + 9*prof.CoreC6 + prof.PkgPC0 + prof.DRAMActive + prof.PlatformS0
	if math.Abs(busy-wantBusy) > 1e-9 {
		t.Errorf("busy power = %v, want %v", busy, wantBusy)
	}
	// During suspend entry the server draws the entry transition power.
	eng.RunUntil(200 * simtime.Millisecond)
	if got := s.Power(); math.Abs(got-prof.SleepEntry.Watts) > 1e-9 {
		t.Errorf("entry power = %v, want %v", got, prof.SleepEntry.Watts)
	}
	// Once in S3: sleep draw.
	eng.RunUntil(5 * simtime.Second)
	if got := s.Power(); math.Abs(got-sleepWatts(prof)) > 1e-9 {
		t.Errorf("sleep power = %v, want %v", got, sleepWatts(prof))
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng, s := newTestServer(t, nil)
	end := simtime.Second
	eng.RunUntil(end)
	// Idle server for 1s: energy should be between deep-sleep-package
	// and Active-Idle levels, and components must sum.
	total := s.EnergyTo(end)
	parts := s.CPUEnergyTo(end) + s.DRAMEnergyTo(end) + s.PlatformEnergyTo(end)
	if math.Abs(total-parts) > 1e-9 {
		t.Errorf("component sum %v != total %v", parts, total)
	}
	prof := power.XeonE5_2680()
	min := sleepWatts(prof)
	max := idleWatts(prof)
	if total < min || total > max {
		t.Errorf("idle energy %v J outside [%v, %v]", total, min, max)
	}
}

func TestPerCoreQueueMode(t *testing.T) {
	eng, s := newTestServer(t, func(c *Config) {
		c.QueueMode = QueuePerCore
	})
	count := 0
	s.OnTaskDone(func(_ *Server, tk *job.Task) { count++ })
	// 25 tasks over 10 cores: at least one core gets 3.
	for i := 0; i < 25; i++ {
		submitSingle(eng, s, job.ID(i), 0, 10*simtime.Millisecond)
	}
	eng.RunUntil(simtime.Millisecond)
	if s.BusyCores() != 10 {
		t.Errorf("BusyCores = %d", s.BusyCores())
	}
	if s.QueueLen() != 15 {
		t.Errorf("QueueLen = %d, want 15", s.QueueLen())
	}
	eng.Run()
	if count != 25 {
		t.Errorf("completions = %d", count)
	}
}

func TestHeterogeneousCores(t *testing.T) {
	speeds := []float64{2, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	eng, s := newTestServer(t, func(c *Config) {
		c.CoreSpeeds = speeds
	})
	var doneAt simtime.Time
	s.OnTaskDone(func(_ *Server, tk *job.Task) { doneAt = eng.Now() })
	// Single task must land on the fast core and take size/2 (plus the
	// C1 exit the zero-delay governor already applied).
	submitSingle(eng, s, 1, 0, 10*simtime.Millisecond)
	eng.Run()
	want := 5*simtime.Millisecond + power.XeonE5_2680().WakeC1.Latency
	if doneAt != want {
		t.Errorf("finished at %v, want %v on the 2x core", doneAt, want)
	}
	if s.cores[0].completed != 1 {
		t.Error("fast core did not serve the task")
	}
}

func TestDVFSSlowdown(t *testing.T) {
	eng, s := newTestServer(t, nil)
	if err := s.SetPState(3); err != nil { // P3: 0.55 speed
		t.Fatal(err)
	}
	var doneAt simtime.Time
	s.OnTaskDone(func(_ *Server, tk *job.Task) { doneAt = eng.Now() })
	submitSingle(eng, s, 1, 0, 11*simtime.Millisecond)
	eng.Run()
	want := simtime.FromSeconds(0.011/0.55) + power.XeonE5_2680().WakeC1.Latency
	if doneAt != want {
		t.Errorf("finished at %v, want %v", doneAt, want)
	}
	if err := s.SetPState(99); err == nil {
		t.Error("out-of-range P-state accepted")
	}
}

func TestForceSleepAndWakeUp(t *testing.T) {
	eng, s := newTestServer(t, nil)
	eng.RunUntil(simtime.Millisecond)
	if !s.ForceSleep() {
		t.Fatal("ForceSleep on idle server failed")
	}
	if !s.entering || !s.Asleep() {
		t.Fatal("suspend not started")
	}
	if s.ForceSleep() {
		t.Error("double ForceSleep succeeded")
	}
	eng.RunUntil(4 * simtime.Second)
	if s.sstate != power.S3 {
		t.Fatalf("state = %v, want S3", s.sstate)
	}
	if !s.WakeUp() {
		t.Fatal("WakeUp failed")
	}
	if !s.waking {
		t.Error("not waking after WakeUp")
	}
	eng.Run()
	if s.sstate != power.S0 {
		t.Errorf("state after wake = %v", s.sstate)
	}
	if s.WakeUp() {
		t.Error("WakeUp on awake server succeeded")
	}
}

func TestWakeUpDuringSuspendEntry(t *testing.T) {
	eng, s := newTestServer(t, nil)
	eng.RunUntil(simtime.Millisecond)
	if !s.ForceSleep() {
		t.Fatal("ForceSleep failed")
	}
	// Mid-entry wake request: honored once the suspend completes.
	if !s.WakeUp() {
		t.Error("WakeUp during suspend entry rejected")
	}
	eng.Run()
	if s.sstate != power.S0 {
		t.Errorf("state = %v, want S0 after entry+wake", s.sstate)
	}
	if s.WakeCount() != 1 {
		t.Errorf("WakeCount = %d", s.WakeCount())
	}
}

func TestForceSleepRefusedWhenBusy(t *testing.T) {
	eng, s := newTestServer(t, nil)
	submitSingle(eng, s, 1, 0, 50*simtime.Millisecond)
	eng.RunUntil(10 * simtime.Millisecond)
	if s.ForceSleep() {
		t.Error("ForceSleep succeeded on busy server")
	}
}

func TestSetDelayTimerRuntime(t *testing.T) {
	eng, s := newTestServer(t, nil)
	eng.RunUntil(simtime.Millisecond)
	// Enable at runtime on an already-idle server: must arm immediately.
	s.SetDelayTimer(true, 10*simtime.Millisecond)
	eng.RunUntil(20 * simtime.Millisecond)
	if !s.entering {
		t.Error("suspend not started after runtime-enabled timer")
	}
	eng.RunUntil(5 * simtime.Second)
	if s.sstate != power.S3 {
		t.Errorf("state = %v, want S3", s.sstate)
	}
	// Wake it and disable before the wake completes: it must stay awake.
	s.WakeUp()
	s.SetDelayTimer(false, 0)
	eng.Run()
	eng.RunUntil(simtime.Minute)
	if s.sstate != power.S0 {
		t.Errorf("state = %v, want S0 with timer disabled", s.sstate)
	}
}

func TestSubmitWhileWakingQueues(t *testing.T) {
	eng, s := newTestServer(t, func(c *Config) {
		c.DelayTimerEnabled = true
		c.DelayTimer = 10 * simtime.Millisecond
	})
	count := 0
	s.OnTaskDone(func(_ *Server, tk *job.Task) { count++ })
	// Suspend entry starts at 10ms (3s). Two arrivals 1ms apart land
	// mid-entry; both ride the single coalesced wake.
	submitSingle(eng, s, 1, simtime.Second, 5*simtime.Millisecond)
	submitSingle(eng, s, 2, simtime.Second+simtime.Millisecond, 5*simtime.Millisecond)
	eng.Run()
	if count != 2 {
		t.Errorf("completions = %d", count)
	}
	if s.WakeCount() != 1 {
		t.Errorf("WakeCount = %d, want a single coalesced wake", s.WakeCount())
	}
}

func TestConfigValidation(t *testing.T) {
	eng := engine.New()
	if _, err := New(0, eng, Config{}); err == nil {
		t.Error("nil profile accepted")
	}
	cfg := DefaultConfig(power.XeonE5_2680())
	cfg.CoreSpeeds = []float64{1} // wrong length
	if _, err := New(0, eng, cfg); err == nil {
		t.Error("mismatched core speeds accepted")
	}
	cfg = DefaultConfig(power.XeonE5_2680())
	cfg.CoreSpeeds = make([]float64, 10)
	cfg.CoreSpeeds[3] = -1
	if _, err := New(0, eng, cfg); err == nil {
		t.Error("negative core speed accepted")
	}
	cfg = DefaultConfig(power.XeonE5_2680())
	cfg.DelayTimerEnabled = true
	cfg.DelayTimer = -simtime.Second
	if _, err := New(0, eng, cfg); err == nil {
		t.Error("negative delay timer accepted")
	}
}

func TestQueueModeString(t *testing.T) {
	if QueueUnified.String() != "unified" || QueuePerCore.String() != "per-core" {
		t.Error("QueueMode.String broken")
	}
	if QueueMode(9).String() != "QueueMode(9)" {
		t.Error("unknown mode formatting")
	}
	// Scenario-codec text forms round-trip; unknowns error.
	for _, m := range []QueueMode{QueueUnified, QueuePerCore} {
		b, err := m.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var back QueueMode = 99
		if err := back.UnmarshalText(b); err != nil || back != m {
			t.Errorf("round trip %v -> %q -> %v (%v)", m, b, back, err)
		}
	}
	if _, err := QueueMode(9).MarshalText(); err == nil {
		t.Error("unknown mode marshaled")
	}
	var m QueueMode
	if err := m.UnmarshalText([]byte("percore")); err == nil {
		t.Error("unknown name unmarshaled (text form is per-core)")
	}
}

// Property: every submitted task completes exactly once, regardless of
// arrival pattern, queue mode, and sleep policy.
func TestTaskConservationProperty(t *testing.T) {
	f := func(seed uint64, perCore bool, delayMs uint8) bool {
		eng := engine.New()
		cfg := DefaultConfig(power.XeonE5_2680())
		if perCore {
			cfg.QueueMode = QueuePerCore
		}
		cfg.DelayTimerEnabled = true
		cfg.DelayTimer = simtime.Time(delayMs) * simtime.Millisecond
		s, err := New(0, eng, cfg)
		if err != nil {
			return false
		}
		completions := make(map[job.ID]int)
		s.OnTaskDone(func(_ *Server, tk *job.Task) { completions[tk.Job.ID]++ })
		// Pseudo-random arrivals from the seed.
		x := seed
		at := simtime.Time(0)
		const n = 40
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			at += simtime.Time(x%20) * simtime.Millisecond
			size := simtime.Time(1+x%10) * simtime.Millisecond
			submitSingle(eng, s, job.ID(i), at, size)
		}
		eng.Run()
		if len(completions) != n {
			return false
		}
		for _, c := range completions {
			if c != 1 {
				return false
			}
		}
		return s.PendingTasks() == 0 && s.BusyCores() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: energy components are nonnegative and total energy is
// monotone in time.
func TestEnergyMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		eng := engine.New()
		cfg := DefaultConfig(power.XeonE5_2680())
		cfg.DelayTimerEnabled = true
		cfg.DelayTimer = 20 * simtime.Millisecond
		s, err := New(0, eng, cfg)
		if err != nil {
			return false
		}
		x := seed
		at := simtime.Time(0)
		for i := 0; i < 20; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			at += simtime.Time(x%50) * simtime.Millisecond
			submitSingle(eng, s, job.ID(i), at, simtime.Time(1+x%8)*simtime.Millisecond)
		}
		prev := 0.0
		for end := 100 * simtime.Millisecond; end <= simtime.Second; end += 100 * simtime.Millisecond {
			eng.RunUntil(end)
			e := s.EnergyTo(end)
			if e < prev || s.CPUEnergyTo(end) < 0 || s.DRAMEnergyTo(end) < 0 {
				return false
			}
			prev = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
