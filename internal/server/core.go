package server

import (
	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

// evKind says which of a core's events its record holds.
type evKind uint8

const (
	evNone   evKind = iota
	evFinish        // the running task's completion
	evWake          // the core's C-state exit
	evIdle          // the governor's next C-state promotion
)

// Core is one processing unit: it serves one task at a time (Sec. III).
// Its performance is set by its speed ratio (heterogeneous parts) and the
// active P-state (DVFS); its idle draw follows the C-state governor.
// Cores are values in blocks their farm allocates; a *Core points into
// one and stays valid for the farm's life.
//
// A core is 40 bytes of state and its own event record, ev: it is its
// own event handler (Fire) and has one pending event at a time, of the
// kind kind names — a completion, a wake or an idle promotion never
// overlap — queued in ev beside the state that event reads. An event
// nothing waits for any more (a wake the server's crash voided) is
// canceled, so every event that fires is the one kind names. A Core
// must not be copied (go vet's copylocks rejects it: ev is queued by
// address).
type Core struct {
	srv  *Server
	task *job.Task // running, or reserved while the core wakes

	// draw caches watts() for the server's recompute to sum; refresh
	// follows every write to cstate, busy, waking, wakePkg or the
	// server's P-state.
	draw      float64
	idleStart simtime.Time // when the current idle period began

	id      uint16
	cstate  power.CState
	target  power.CState // next C-state the idle timer promotes into
	kind    evKind
	busy    bool
	waking  bool
	wakePkg bool // the wake in flight also exits package C6

	ev engine.Event
}

// Fire implements engine.Handler: it runs the core's pending event.
func (c *Core) Fire() {
	k := c.kind
	c.kind = evNone
	switch k {
	case evFinish:
		c.finish()
	case evWake:
		c.wakeDone()
	case evIdle:
		c.idleStep()
	}
}

// after queues the core's one pending event, of kind k, d from now.
func (c *Core) after(d simtime.Time, k evKind) {
	c.kind = k
	c.srv.farm.eng.AfterIn(&c.ev, d, c)
}

// cancel takes the core's pending event, if any, off the queue.
func (c *Core) cancel() {
	c.srv.farm.eng.CancelIn(&c.ev)
	c.kind = evNone
}

// speed is the core's heterogeneous speed ratio.
func (c *Core) speed() float64 {
	if sp := c.srv.cfg.CoreSpeeds; sp != nil {
		return sp[c.id]
	}
	return 1
}

// watts derives the core's present draw from its state.
func (c *Core) watts() float64 {
	if c.waking {
		return c.wakeTransition().Watts
	}
	prof := c.srv.cfg.Profile
	return prof.CoreWatts(c.cstate, c.busy, prof.PStates[c.srv.pstateIdx])
}

// refresh re-caches the draw after a change to what watts reads.
func (c *Core) refresh() { c.draw = c.watts() }

// effectiveSpeed is the product of the heterogeneous ratio and DVFS.
func (c *Core) effectiveSpeed() float64 {
	return c.speed() * c.srv.cfg.Profile.PStates[c.srv.pstateIdx].Speed
}

// available reports whether the core can accept a task right now.
func (c *Core) available() bool { return !c.busy && !c.waking }

// reserved reports the task waiting for the core's wake, if any.
func (c *Core) reserved() *job.Task {
	if c.waking {
		return c.task
	}
	return nil
}

// assign hands the core a task. The core must be available. If the core
// (or its package) is in a sleep state, the task is reserved while the
// wake transition runs.
func (c *Core) assign(t *job.Task) {
	if !c.available() {
		panic("server: assign to unavailable core")
	}
	c.stopIdleTimer()
	if c.cstate == power.C0 {
		c.run(t)
		return
	}
	// Wake transition: core (plus its socket, if parked) must power up.
	s := c.srv
	sk := s.socketOf(int(c.id))
	c.waking = true
	c.wakePkg = s.parked(sk)
	c.refresh()
	s.wakingCores++
	c.task = t
	s.queueDelta(1)
	if c.wakePkg {
		// The package exits PC6 as soon as any of its cores wakes.
		s.setSocketParked(sk, false)
	}
	s.recompute()
	c.after(c.wakeTransition().Latency, evWake)
}

// wakeDone completes a core wake transition: the reserved task runs, or
// (if its reservation was aborted while the wake was committed) the core
// simply goes idle.
func (c *Core) wakeDone() {
	c.waking = false
	c.wakePkg = false
	c.srv.wakingCores--
	c.cstate = power.C0
	c.refresh()
	task := c.task
	c.task = nil
	if task == nil {
		c.becomeIdle()
		c.srv.checkServerIdle()
		return
	}
	c.srv.queueDelta(-1)
	c.run(task)
}

// wakeTransition reports the cost of leaving the current C-state,
// including the package exit when the wake also exits package C6.
func (c *Core) wakeTransition() power.Transition {
	prof := c.srv.cfg.Profile
	var t power.Transition
	switch c.cstate {
	case power.C1:
		t = prof.WakeC1
	case power.C3:
		t = prof.WakeC3
	case power.C6:
		t = prof.WakeC6
	default:
		return power.Transition{}
	}
	if c.wakePkg {
		t.Latency += prof.WakePC6.Latency
		if prof.WakePC6.Watts > t.Watts {
			t.Watts = prof.WakePC6.Watts
		}
	}
	return t
}

// run starts executing t; the core must be in C0.
func (c *Core) run(t *job.Task) {
	c.busy = true
	c.refresh()
	c.task = t
	t.State = job.TaskRunning
	c.srv.busyDelta(1)
	c.srv.recompute()
	c.after(t.ServiceTime(c.effectiveSpeed()), evFinish)
}

// finish completes the running task and asks the server for more work.
func (c *Core) finish() {
	t := c.task
	c.busy = false
	c.refresh()
	c.task = nil
	c.srv.busyDelta(-1)
	c.srv.coreFinished(c, t)
}

// abortRun cancels the running task's completion (fault retraction): the
// core pulls its next queued task or goes idle. The aborted task is not
// counted as completed.
func (c *Core) abortRun() {
	c.cancel()
	c.busy = false
	c.refresh()
	c.task = nil
	c.srv.busyDelta(-1)
	if next := c.srv.nextFor(c); next != nil {
		c.run(next)
	} else {
		c.becomeIdle()
		c.srv.checkServerIdle()
	}
}

// becomeIdle engages the C-state governor after the core runs out of
// work.
func (c *Core) becomeIdle() {
	c.cstate = power.C0
	c.refresh()
	c.idleStart = c.srv.farm.eng.Now()
	c.srv.recompute()
	c.armIdleStep()
}

// armIdleStep schedules the next enabled C-state promotion. Thresholds
// are absolute from the start of the idle period, so disabling an
// intermediate state (e.g. a C0/C6-only validation run) skips straight
// to the next enabled one.
func (c *Core) armIdleStep() {
	cfg := c.srv.cfg
	elapsed := c.srv.farm.eng.Now() - c.idleStart
	steps := []struct {
		state power.CState
		at    simtime.Time
	}{
		{power.C1, cfg.IdleToC1},
		{power.C3, cfg.IdleToC3},
		{power.C6, cfg.IdleToC6},
	}
	for _, s := range steps {
		if s.at < 0 || s.state <= c.cstate {
			continue
		}
		wait := s.at - elapsed
		if wait < 0 {
			wait = 0
		}
		c.target = s.state
		c.stopIdleTimer()
		c.after(wait, evIdle)
		return
	}
}

// idleStep promotes the core into the pending deeper C-state.
func (c *Core) idleStep() {
	c.cstate = c.target
	c.refresh()
	c.srv.recompute()
	if c.cstate == power.C6 {
		c.srv.maybePkgC6()
	}
	c.armIdleStep()
}

// stopIdleTimer cancels the pending C-state promotion, if any.
func (c *Core) stopIdleTimer() {
	if c.kind == evIdle {
		c.cancel()
	}
}

// park forces the core into C6 without timers (used when the whole
// server enters a system sleep state).
func (c *Core) park() {
	c.stopIdleTimer()
	c.cstate = power.C6
	c.refresh()
}
