package server

import (
	"fmt"
	"slices"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
)

// StateActive is power.StateActive under the name bench/ reads; the
// residency labels are power's.
const StateActive = power.StateActive

// The server knows its residency state as an index into
// power.ServerStates — modelcov's state order, so a coverage transition
// needs no lookup — and labels exist only where results are reported.
const (
	stActive = iota
	stWakeUp
	stIdle
	stPkgC6
	stSysSleep
	stOff
	stDown
)

// Server models one machine: a multi-core processor package, DRAM and
// platform components, a local task queue, a local scheduler, and a
// hierarchical power controller. All state changes run on the simulation
// engine's virtual clock.
//
// A server is one flat record: its energy meters and residency tracker
// are embedded, and its cores, socket states and residency durations
// are runs of blocks its farm allocates for many servers at once, so a
// state change touches a few adjacent cache lines and building a farm
// allocates per block, not per part.
type Server struct {
	id   int
	eng  *engine.Engine
	cfg  Config
	prof *power.ServerProfile

	cores       []Core
	queue       []*job.Task // unified local queue
	busyCores   int
	wakingCores int // cores with a wake transition in flight

	sstate         power.SState
	sockets        []power.PkgCState // per-socket package C-state
	waking         bool              // system-level S3/S5 -> S0 transition in flight
	entering       bool              // system suspend transition in flight
	wakeAfterEntry bool              // a wake was requested mid-suspend

	// failed marks a crashed server (fault model): it draws nothing,
	// accepts no work, and ignores every in-flight transition. epoch
	// increments on each Crash and Recover; transition completions
	// scheduled before a crash carry the epoch they were armed under and
	// become inert when it no longer matches.
	failed bool
	epoch  uint32

	// Sleep-state delay bookkeeping. Every server belongs to a farm and
	// arms its suspend deadline in the farm's shared sleep planner, so an
	// idle server holds no queued engine event of its own. sleepIdx is
	// the index of its entry in the planner heap, -1 when unarmed.
	farm      *Farm
	sleepIdx  int32
	pstateIdx int32 // into prof.PStates: DVFS sets all cores alike

	// queueLen mirrors the queued + reserved task count (the sum QueueLen
	// used to recompute by walking every core) and is maintained at each
	// mutation; RecountQueueLen is the walking oracle the invariant
	// checker compares it against.
	queueLen int

	// Cached system-transition callbacks: suspend entry and wake each have
	// at most one completion in flight, so the armed epoch lives in a
	// field and the closures are allocated once — sleep cycles are
	// alloc-free.
	entryCB      func()
	entryEpoch   uint32
	sysWakeCB    func()
	sysWakeEpoch uint32

	onTaskDone []func(*Server, *job.Task)

	cpuMeter  stats.EnergyMeter
	dramMeter stats.EnergyMeter
	platMeter stats.EnergyMeter
	residency stats.Residency

	// cover, when non-nil, receives residency-transition features; state
	// is the residency state recompute last recorded (-1 before the
	// first), so only actual changes are counted.
	cover *modelcov.Map
	state int

	completedTasks int64
	wakeCount      int64 // system-level wakes, for diagnostics

	// onBusyChange, when set, observes busy-core count changes (the
	// DVFS governor's utilization signal).
	onBusyChange func(now simtime.Time, busy int)
}

// New constructs a standalone server bound to the engine: a farm of
// one. Servers built in bulk should share a Farm, and with it one
// sleep-planner timer across the population.
func New(id int, eng *engine.Engine, cfg Config) (*Server, error) {
	return NewFarm(eng).Add(id, cfg)
}

// Add constructs a server attached to this farm: its sleep-state delay
// timer runs through the shared planner and its pending-task count feeds
// the farm's running total. The server starts in S0 with all cores idle
// (governor engaged).
func (f *Farm) Add(id int, cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SleepState == power.S0 {
		cfg.SleepState = power.S3
	}
	// The record and its parts come zeroed out of the farm's blocks and
	// are filled in place, field by field: no composite literal is copied
	// over them and nothing is formatted — a server's meters and tracker
	// are anonymous, the engine clock they read never runs backwards.
	batch := min(max(len(f.servers), 1), maxBatch)
	s := &carve(&f.srvBlock, 1, batch)[0]
	s.id, s.eng, s.cfg, s.prof = id, f.eng, cfg, cfg.Profile
	s.farm, s.sleepIdx = f, -1
	s.sstate, s.state = power.S0, -1
	s.sockets = carve(&f.socketBlock, s.prof.SocketCount(), batch)
	s.residency.Init(power.ServerStates[:], carve(&f.durBlock, len(power.ServerStates), batch))
	s.cores = carve(&f.coreBlock, s.prof.Cores, batch)
	for i := range s.cores {
		c := &s.cores[i]
		c.id, c.srv, c.speed = i, s, 1
		if cfg.CoreSpeeds != nil {
			c.speed = cfg.CoreSpeeds[i]
		}
		c.finishCB, c.wakeCB, c.idleCB = c.finish, c.wakeDone, c.idleStep
		c.refresh()
	}
	s.recompute()
	for i := range s.cores {
		s.cores[i].becomeIdle()
	}
	s.checkServerIdle()
	f.servers = append(f.servers, s)
	return s, nil
}

// armSleep schedules enterSleep d from now through the farm's shared
// planner, replacing any pending deadline (Timer.Reset semantics).
func (s *Server) armSleep(d simtime.Time) {
	s.farm.planner.arm(s, s.eng.Now()+d)
}

// disarmSleep cancels any pending suspend. Cheap no-op when nothing is
// armed.
func (s *Server) disarmSleep() {
	s.farm.planner.disarm(s)
}

// queueDelta adjusts the maintained queued+reserved count and the farm's
// pending aggregates.
func (s *Server) queueDelta(d int) {
	s.queueLen += d
	s.farm.totalPending += int64(d)
}

// busyDelta adjusts the busy-core count and the farm's pending aggregates
// (pending = queued + reserved + running).
func (s *Server) busyDelta(d int) {
	s.busyCores += d
	s.farm.totalPending += int64(d)
}

// ID reports the server's identifier.
func (s *Server) ID() int { return s.id }

// Cores reports the number of cores.
func (s *Server) Cores() int { return len(s.cores) }

// Profile exposes the server's power profile (read-only; used for
// physics-bound checks and reporting).
func (s *Server) Profile() *power.ServerProfile { return s.prof }

// OnTaskDone subscribes a completion callback invoked when any task
// finishes on this server. The scheduler registers first (DAG and job
// bookkeeping); additional subscribers (traffic hooks, probes) run after
// it in registration order. The *job.Task is valid until the event that
// finished it returns; once its whole job is done the simulation may
// recycle both (see sched.Scheduler.OnJobDone).
func (s *Server) OnTaskDone(fn func(*Server, *job.Task)) {
	s.onTaskDone = append(s.onTaskDone, fn)
}

// socketOf reports which socket a core belongs to.
func (s *Server) socketOf(coreID int) int {
	return coreID / s.prof.CoresPerSocket()
}

// Asleep reports whether the server is in (or suspending into) a system
// sleep state and not already waking.
func (s *Server) Asleep() bool {
	return (s.sstate != power.S0 || s.entering) && !s.waking
}

// BusyCores reports the number of cores currently executing tasks.
func (s *Server) BusyCores() int { return s.busyCores }

// QueueLen reports tasks buffered locally (all queues plus wake
// reservations, excluding running tasks). O(1): the count is maintained
// at every queue mutation rather than recomputed by walking cores.
func (s *Server) QueueLen() int { return s.queueLen }

// RecountQueueLen recomputes the buffered-task count from first
// principles by walking every queue — the invariant checker's oracle for
// the maintained QueueLen counter.
func (s *Server) RecountQueueLen() int {
	n := len(s.queue)
	for i := range s.cores {
		c := &s.cores[i]
		n += len(c.queue)
		if c.reserved != nil {
			n++
		}
	}
	return n
}

// PowerCacheStale is the invariant checker's walking oracle for what
// recompute sums instead of re-deriving: it reports whether any core's
// cached draw, or the waking-core count, disagrees with the core states.
func (s *Server) PowerCacheStale() bool {
	waking := 0
	for i := range s.cores {
		c := &s.cores[i]
		if c.draw != c.watts() {
			return true
		}
		if c.waking {
			waking++
		}
	}
	return waking != s.wakingCores
}

// PendingTasks reports the server's total in-flight load: queued,
// reserved and running tasks. Global schedulers use this as the load
// signal (Sec. IV-C's "pending jobs per server").
func (s *Server) PendingTasks() int { return s.QueueLen() + s.busyCores }

// CompletedTasks reports the number of tasks finished on this server.
func (s *Server) CompletedTasks() int64 { return s.completedTasks }

// WakeCount reports how many system-level wake transitions occurred.
func (s *Server) WakeCount() int64 { return s.wakeCount }

// Failed reports whether the server is crashed (fault model).
func (s *Server) Failed() bool { return s.failed }

// Crash fails the server (fault model): every running task's completion
// is canceled, all local state is discarded, the power draw drops to
// zero, and residency is billed to power.StateDown until Recover. It returns
// the orphaned tasks — running, reserved, and queued — in deterministic
// order (per-core running, then reserved, then per-core queues, then the
// unified queue) so the global scheduler can apply its drop/requeue
// policy. Crashing a failed server is a no-op returning nil.
func (s *Server) Crash() []*job.Task {
	if s.failed {
		return nil
	}
	s.failed = true
	s.epoch++
	s.disarmSleep()
	var orphans []*job.Task
	for i := range s.cores {
		if c := &s.cores[i]; c.task != nil {
			s.eng.Cancel(c.finishEv)
			c.finishEv = engine.Handle{}
			orphans = append(orphans, c.task)
			c.task = nil
			c.busy = false
		}
	}
	for i := range s.cores {
		if c := &s.cores[i]; c.reserved != nil {
			orphans = append(orphans, c.reserved)
			c.reserved = nil
		}
	}
	for i := range s.cores {
		c := &s.cores[i]
		orphans = append(orphans, c.queue...)
		c.queue = nil
		c.waking = false
		c.stopIdleTimer()
		c.cstate = power.C6
		c.refresh()
	}
	s.wakingCores = 0
	orphans = append(orphans, s.queue...)
	s.queue = nil
	s.queueDelta(-s.queueLen)
	s.busyDelta(-s.busyCores)
	s.waking, s.entering, s.wakeAfterEntry = false, false, false
	s.sstate = power.S0 // irrelevant while failed; Recover rebuilds
	for sk := range s.sockets {
		s.sockets[sk] = power.PC6
	}
	s.recompute()
	return orphans
}

// Recover boots a crashed server: it comes back in S0 with every core
// idle and the governor engaged, exactly as a freshly built server.
// Recovering a healthy server is a no-op.
func (s *Server) Recover() {
	if !s.failed {
		return
	}
	s.failed = false
	s.epoch++
	s.sstate = power.S0
	for sk := range s.sockets {
		s.sockets[sk] = power.PC0
	}
	for i := range s.cores {
		s.cores[i].becomeIdle()
	}
	s.checkServerIdle()
}

// Abort retracts a task the scheduler previously submitted: it is
// removed from whichever queue holds it, or its execution is canceled
// mid-run (the core pulls its next task). It reports whether the task
// was found. Used by the fault model to kill sibling tasks of lost jobs
// on healthy servers.
func (s *Server) Abort(t *job.Task) bool {
	if i := slices.Index(s.queue, t); i >= 0 {
		s.queue = slices.Delete(s.queue, i, i+1)
		s.queueDelta(-1)
		return true
	}
	for ci := range s.cores {
		c := &s.cores[ci]
		if i := slices.Index(c.queue, t); i >= 0 {
			c.queue = slices.Delete(c.queue, i, i+1)
			s.queueDelta(-1)
			return true
		}
		if c.reserved == t {
			// The core's wake is committed; it finds no reservation when
			// the transition completes and simply goes idle.
			c.reserved = nil
			s.queueDelta(-1)
			return true
		}
		if c.task == t {
			c.abortRun()
			return true
		}
	}
	return false
}

// Submit hands a task to the server's local scheduler. If the server is
// asleep (or suspending) it begins waking as soon as possible; the task
// waits in the local queue.
func (s *Server) Submit(t *job.Task) {
	if s.failed {
		panic("server: Submit to a failed server")
	}
	t.State = job.TaskQueued
	t.ServerID = s.id
	s.disarmSleep()
	if s.entering {
		// Suspend is committed; the wake starts when it completes.
		s.enqueue(t)
		s.wakeAfterEntry = true
		return
	}
	if s.sstate != power.S0 {
		s.enqueue(t)
		s.beginWake()
		return
	}
	if s.waking {
		s.enqueue(t)
		return
	}
	s.dispatch(t)
}

// dispatch places a task on a core or in the appropriate queue (server
// must be awake).
func (s *Server) dispatch(t *job.Task) {
	switch s.cfg.QueueMode {
	case QueuePerCore:
		// Shortest-queue assignment at arrival; capability-aware
		// tie-break prefers faster cores.
		best := -1
		bestLoad := 0
		for i := range s.cores {
			c := &s.cores[i]
			load := len(c.queue)
			if c.busy || c.waking || c.reserved != nil {
				load++
			}
			if best == -1 || load < bestLoad ||
				(load == bestLoad && c.speed > s.cores[best].speed) {
				best = c.id
				bestLoad = load
			}
		}
		c := &s.cores[best]
		if c.available() {
			c.assign(t)
		} else {
			c.queue = append(c.queue, t)
			s.queueDelta(1)
		}
	default: // QueueUnified
		if c := s.pickIdleCore(); c != nil {
			c.assign(t)
		} else {
			s.queue = append(s.queue, t)
			s.queueDelta(1)
		}
	}
}

// pickIdleCore selects the best available core: fastest first (the local
// scheduler "can also consider the capability of the core", Sec. III-E),
// then shallowest C-state to minimize wake cost, then lowest id.
func (s *Server) pickIdleCore() *Core {
	var best *Core
	for i := range s.cores {
		c := &s.cores[i]
		if !c.available() {
			continue
		}
		if best == nil {
			best = c
			continue
		}
		if c.speed != best.speed {
			if c.speed > best.speed {
				best = c
			}
			continue
		}
		if c.cstate != best.cstate {
			if c.cstate < best.cstate {
				best = c
			}
			continue
		}
	}
	return best
}

// enqueue buffers a task while the server is asleep or waking.
func (s *Server) enqueue(t *job.Task) {
	s.queue = append(s.queue, t)
	s.queueDelta(1)
}

// coreFinished is called by a core when its task completes.
func (s *Server) coreFinished(c *Core, t *job.Task) {
	s.completedTasks++
	s.farm.totalCompleted++
	// Pull next work for this core before recomputing power so the
	// busy->busy path does not bounce through an idle sample.
	if next := s.nextFor(c); next != nil {
		c.run(next)
	} else {
		c.becomeIdle()
		s.checkServerIdle()
	}
	for _, fn := range s.onTaskDone {
		fn(s, t)
	}
}

// nextFor pops the next task for core c per the queue mode.
func (s *Server) nextFor(c *Core) *job.Task {
	q := &s.queue
	if s.cfg.QueueMode == QueuePerCore {
		q = &c.queue
	}
	if len(*q) == 0 {
		return nil
	}
	// Shift down rather than re-slice: the queue keeps its capacity, so
	// steady-state queueing allocates nothing, and the vacated slot is
	// cleared, so the backing array never names a task that has left —
	// one that may since have finished and been recycled into another job.
	t := (*q)[0]
	*q = slices.Delete(*q, 0, 1)
	s.queueDelta(-1)
	return t
}

// checkServerIdle arms the delay timer when the server has gone
// completely idle (Sec. IV-B).
func (s *Server) checkServerIdle() {
	if !s.cfg.DelayTimerEnabled || s.failed {
		return
	}
	if s.sstate != power.S0 || s.waking || s.entering {
		return
	}
	if s.busyCores > 0 || s.queueLen > 0 {
		return
	}
	s.armSleep(s.cfg.DelayTimer)
}

// maybePkgC6 parks any socket whose cores have all reached C6.
func (s *Server) maybePkgC6() {
	if !s.cfg.PkgC6Enabled || s.sstate != power.S0 || s.entering || s.failed {
		return
	}
	perSocket := s.prof.CoresPerSocket()
	for sk := range s.sockets {
		if s.sockets[sk] == power.PC6 {
			continue
		}
		parked := true
		for i := sk * perSocket; i < (sk+1)*perSocket; i++ {
			if c := &s.cores[i]; c.cstate != power.C6 || c.busy || c.waking {
				parked = false
				break
			}
		}
		if parked {
			s.setSocketState(sk, power.PC6)
		}
	}
}

// setSocketState transitions one socket's package C-state.
func (s *Server) setSocketState(sk int, ps power.PkgCState) {
	if s.sockets[sk] == ps {
		return
	}
	s.sockets[sk] = ps
	s.recompute()
}

// enterSleep starts the suspend transition into the configured sleep
// state. The server must be idle; stale timer fires are ignored
// otherwise. The suspend is committed: a task arriving mid-entry waits
// until entry completes and the wake path runs.
func (s *Server) enterSleep() {
	if s.failed || s.sstate != power.S0 || s.waking || s.entering ||
		s.busyCores > 0 || s.queueLen > 0 {
		return
	}
	s.entering = true
	for i := range s.cores {
		s.cores[i].park()
	}
	for sk := range s.sockets {
		s.sockets[sk] = power.PC6
	}
	s.recompute()
	s.entryEpoch = s.epoch
	if s.entryCB == nil {
		s.entryCB = s.sleepEntryDone
	}
	s.eng.After(s.prof.SleepEntry.Latency, s.entryCB)
}

// sleepEntryDone completes the suspend transition.
func (s *Server) sleepEntryDone() {
	if s.epoch != s.entryEpoch {
		return // the server crashed mid-suspend; the transition is void
	}
	s.entering = false
	s.sstate = s.cfg.SleepState
	s.recompute()
	if s.wakeAfterEntry || s.queueLen > 0 {
		s.wakeAfterEntry = false
		s.beginWake()
	}
}

// WakeUp proactively starts the system wake transition (used by adaptive
// policies to pre-warm a server before dispatching to it). It reports
// whether a wake was initiated, already in flight, or scheduled to
// follow an in-flight suspend.
func (s *Server) WakeUp() bool {
	if s.failed {
		return false
	}
	if s.entering {
		s.wakeAfterEntry = true
		return true
	}
	if s.sstate == power.S0 {
		return false
	}
	s.beginWake()
	return true
}

// beginWake starts the S3/S5 -> S0 transition if not already in flight.
func (s *Server) beginWake() {
	if s.waking || s.sstate == power.S0 {
		return
	}
	s.waking = true
	s.wakeCount++
	trans := s.prof.WakeS3
	if s.sstate == power.S5 {
		trans = s.prof.WakeS5
	}
	s.recompute()
	s.sysWakeEpoch = s.epoch
	if s.sysWakeCB == nil {
		s.sysWakeCB = s.sysWakeDone
	}
	s.eng.After(trans.Latency, s.sysWakeCB)
}

// sysWakeDone completes the system wake unless the server crashed while
// the transition was in flight.
func (s *Server) sysWakeDone() {
	if s.epoch != s.sysWakeEpoch {
		return
	}
	s.finishWake()
}

// finishWake completes the system wake: package powers up, queued work
// is drained onto cores (each paying its core-level C6 exit).
func (s *Server) finishWake() {
	s.waking = false
	s.sstate = power.S0
	for sk := range s.sockets {
		s.sockets[sk] = power.PC0
	}
	s.recompute()
	// Drain the backlog onto available cores. Each dispatch re-counts the
	// task if it lands back in a queue or reservation — in place: task i
	// is read before a dispatch can write slot i or below, and the slots
	// past the new tail are cleared.
	pending := s.queue
	s.queue = pending[:0]
	s.queueDelta(-len(pending))
	for _, t := range pending {
		s.dispatch(t)
	}
	clear(pending[len(s.queue):])
	for i := range s.cores {
		if c := &s.cores[i]; c.available() && c.cstate != power.C0 {
			// No work for this core: restart its idle accounting from
			// the parked state so it can re-enter PkgC6 later.
			c.armIdleStep()
		}
	}
	s.checkServerIdle()
	s.maybePkgC6()
}

// SetDelayTimer reconfigures the delay-timer policy at runtime (the dual
// delay-timer strategy of Sec. IV-B re-partitions τ values across the
// farm). Passing enabled=false cancels any armed timer.
func (s *Server) SetDelayTimer(enabled bool, d simtime.Time) {
	s.cfg.DelayTimerEnabled = enabled
	s.cfg.DelayTimer = d
	if !enabled {
		s.disarmSleep()
		return
	}
	s.checkServerIdle()
}

// SetPState switches every core to P-state index i (DVFS). Tasks already
// running keep their start-time service estimate (the paper models DVFS
// per dispatch decision, not mid-task re-rating).
func (s *Server) SetPState(i int) error {
	if i < 0 || i >= len(s.prof.PStates) {
		return fmt.Errorf("server %d: P-state %d out of range", s.id, i)
	}
	s.pstateIdx = int32(i)
	for ci := range s.cores {
		s.cores[ci].refresh()
	}
	s.recompute()
	return nil
}

// recompute re-derives component power draws and the residency state
// after any state change. The S0 processor draw is the sum of the
// per-core cached draws in core-index order, then the sockets in order:
// the additions a walk over the core states would make, so every total
// keeps its bits.
func (s *Server) recompute() {
	now := s.eng.Now()
	var cpu, dram, plat float64
	var state int
	switch {
	case s.failed:
		// A crashed server draws nothing; its down time is billed to the
		// Down residency state and excluded from the energy envelope.
		state = stDown
	case s.waking, s.entering:
		plat = s.prof.PlatformS0
		dram = s.prof.DRAMActive
		trans := s.prof.WakeS3
		if s.entering {
			trans = s.prof.SleepEntry
		} else if s.sstate == power.S5 {
			trans = s.prof.WakeS5
		}
		cpu = trans.Watts - plat - dram
		if min := s.prof.PkgPC0; cpu < min {
			cpu = min
		}
		state = stWakeUp
	case s.sstate == power.S3:
		dram = s.prof.DRAMSelfRefresh
		plat = s.prof.PlatformS3
		state = stSysSleep
	case s.sstate == power.S5:
		plat = s.prof.PlatformS5
		state = stOff
	default: // S0
		for i := range s.cores {
			cpu += s.cores[i].draw
		}
		allParked := true
		for _, st := range s.sockets {
			cpu += s.prof.PkgWatts(st)
			if st != power.PC6 {
				allParked = false
			}
		}
		dram = s.prof.DRAMIdle
		plat = s.prof.PlatformS0
		switch {
		case s.busyCores > 0:
			dram = s.prof.DRAMActive
			state = stActive
		case s.wakingCores > 0:
			state = stWakeUp
		case allParked:
			state = stPkgC6
		default:
			state = stIdle
		}
	}
	s.cpuMeter.SetPower(now, cpu)
	s.dramMeter.SetPower(now, dram)
	s.platMeter.SetPower(now, plat)
	if s.cover != nil && state != s.state {
		s.cover.Hit(modelcov.SrvTransition(s.state, state))
	}
	s.state = state
	s.residency.SetStateID(now, state)
	if s.onBusyChange != nil {
		s.onBusyChange(now, s.busyCores)
	}
}

// CPUEnergyTo reports processor energy in joules up to t.
func (s *Server) CPUEnergyTo(t simtime.Time) float64 { return s.cpuMeter.EnergyTo(t) }

// DRAMEnergyTo reports memory energy in joules up to t.
func (s *Server) DRAMEnergyTo(t simtime.Time) float64 { return s.dramMeter.EnergyTo(t) }

// PlatformEnergyTo reports platform energy in joules up to t.
func (s *Server) PlatformEnergyTo(t simtime.Time) float64 { return s.platMeter.EnergyTo(t) }

// EnergyTo reports total server energy in joules up to t.
func (s *Server) EnergyTo(t simtime.Time) float64 {
	return s.CPUEnergyTo(t) + s.DRAMEnergyTo(t) + s.PlatformEnergyTo(t)
}

// Residency exposes the state-residency tracker (Fig. 8).
func (s *Server) Residency() *stats.Residency { return &s.residency }

// SetCover attaches a model-state coverage map: every residency label
// change from here on records a transition feature. Pass nil to
// detach. Coverage recording never alters simulation behavior.
func (s *Server) SetCover(m *modelcov.Map) { s.cover = m }
