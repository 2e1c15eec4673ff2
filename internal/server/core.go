package server

import (
	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

// Core is one processing unit: it serves one task at a time (Sec. III).
// Its performance is set by its speed ratio (heterogeneous parts) and the
// active P-state (DVFS); its idle draw follows the C-state governor.
// Cores are values in blocks their farm allocates; a *Core points into
// one and stays valid for the farm's life.
type Core struct {
	id  int
	srv *Server

	speed float64

	cstate    power.CState
	busy      bool
	waking    bool
	wakeTrans power.Transition
	reserved  *job.Task   // task waiting for this core's wake to finish
	queue     []*job.Task // per-core queue (QueuePerCore mode only)

	// draw caches watts() for the server's recompute to sum; refresh
	// follows every write to cstate, busy, waking, wakeTrans or the
	// server's P-state.
	draw float64

	// The event callbacks are bound once, when the farm builds the core:
	// at most one completion, one wake and one idle promotion are in
	// flight per core, so no event allocates.
	task      *job.Task
	finishEv  engine.Handle
	finishCB  func()
	wakeCB    func()
	wakeEpoch uint32 // server epoch the in-flight wake was armed under
	idleEv    engine.Handle
	idleCB    func()
	target    power.CState // next C-state the idle timer promotes into
	idleStart simtime.Time // when the current idle period began

	completed int64
}

// watts derives the core's present draw from its state.
func (c *Core) watts() float64 {
	if c.waking {
		return c.wakeTrans.Watts
	}
	return c.srv.prof.CoreWatts(c.cstate, c.busy, c.srv.prof.PStates[c.srv.pstateIdx])
}

// refresh re-caches the draw after a change to what watts reads.
func (c *Core) refresh() { c.draw = c.watts() }

// effectiveSpeed is the product of the heterogeneous ratio and DVFS.
func (c *Core) effectiveSpeed() float64 { return c.speed * c.srv.prof.PStates[c.srv.pstateIdx].Speed }

// available reports whether the core can accept a task right now.
func (c *Core) available() bool { return !c.busy && !c.waking && c.reserved == nil }

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
	trans := c.wakeTransition()
	c.waking = true
	c.wakeTrans = trans
	c.refresh()
	c.srv.wakingCores++
	c.reserved = t
	c.srv.queueDelta(1)
	if sk := c.srv.socketOf(c.id); c.srv.sockets[sk] != power.PC0 {
		// The package exits PC6/PC2 as soon as any of its cores wakes.
		c.srv.setSocketState(sk, power.PC0)
	}
	c.srv.recompute()
	// One wake is in flight per core at a time (c.waking), so the armed
	// epoch lives in a field — the idle→C6→wake cycle allocates nothing.
	c.wakeEpoch = c.srv.epoch
	c.srv.eng.After(trans.Latency, c.wakeCB)
}

// wakeDone completes a core wake transition: the reserved task runs, or
// (if its reservation was aborted while the wake was committed) the core
// simply goes idle.
func (c *Core) wakeDone() {
	if c.srv.epoch != c.wakeEpoch {
		return // the server crashed mid-wake; the transition is void
	}
	c.waking = false
	c.srv.wakingCores--
	c.cstate = power.C0
	c.refresh()
	task := c.reserved
	c.reserved = nil
	if task == nil {
		c.becomeIdle()
		c.srv.checkServerIdle()
		return
	}
	c.srv.queueDelta(-1)
	c.run(task)
}

// wakeTransition reports the cost of leaving the current C-state,
// including the package exit when the package is parked.
func (c *Core) wakeTransition() power.Transition {
	prof := c.srv.prof
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
	if c.srv.sockets[c.srv.socketOf(c.id)] == power.PC6 {
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
	dur := t.ServiceTime(c.effectiveSpeed())
	c.finishEv = c.srv.eng.After(dur, c.finishCB)
}

// finish completes the running task and asks the server for more work.
func (c *Core) finish() {
	t := c.task
	c.busy = false
	c.refresh()
	c.task = nil
	c.finishEv = engine.Handle{}
	c.completed++
	c.srv.busyDelta(-1)
	c.srv.coreFinished(c, t)
}

// abortRun cancels the running task's completion (fault retraction): the
// core pulls its next queued task or goes idle. The aborted task is not
// counted as completed.
func (c *Core) abortRun() {
	c.srv.eng.Cancel(c.finishEv)
	c.finishEv = engine.Handle{}
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
	c.idleStart = c.srv.eng.Now()
	c.srv.recompute()
	c.armIdleStep()
}

// armIdleStep schedules the next enabled C-state promotion. Thresholds
// are absolute from the start of the idle period, so disabling an
// intermediate state (e.g. a C0/C6-only validation run) skips straight
// to the next enabled one.
func (c *Core) armIdleStep() {
	cfg := &c.srv.cfg
	elapsed := c.srv.eng.Now() - c.idleStart
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
		c.idleEv = c.srv.eng.After(wait, c.idleCB)
		return
	}
}

// idleStep promotes the core into the pending deeper C-state.
func (c *Core) idleStep() {
	if c.busy || c.waking {
		return // stale timer; a task grabbed the core first
	}
	c.cstate = c.target
	c.refresh()
	c.srv.recompute()
	if c.cstate == power.C6 {
		c.srv.maybePkgC6()
	}
	c.armIdleStep()
}

// stopIdleTimer cancels the pending C-state promotion, if any (a fired
// or canceled handle is inert).
func (c *Core) stopIdleTimer() { c.srv.eng.Cancel(c.idleEv) }

// park forces the core into C6 without timers (used when the whole
// server enters a system sleep state).
func (c *Core) park() {
	c.stopIdleTimer()
	c.cstate = power.C6
	c.refresh()
}
