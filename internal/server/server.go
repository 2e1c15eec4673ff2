package server

import (
	"fmt"
	"math"
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
	stDown
)

// Server models one machine: a multi-core processor package, DRAM and
// platform components, a local task queue, a local scheduler, and a
// hierarchical power controller. All state changes run on the simulation
// engine's virtual clock.
//
// A server is one flat record (DESIGN.md Sec. 13.5): what recompute and
// an event's bookkeeping read come first (flags, counters, socket
// states, P-state, then the meters and the residency tracker with its
// durations), and what only queueing, sleep control and reporting read
// comes last, with the record of its own suspend or wake event. Its
// cores are a run of a block its farm allocates for many servers at
// once, and its Config is one its farm shares among every server added
// with the same value, so building a farm allocates per block, not per
// part, and no server holds a copy of what none varies. A Server must
// not be copied (go vet's copylocks rejects it: its event record is
// queued by address).
type Server struct {
	farm  *Farm
	cfg   *Config // shared: the delay timer is the server's own, below
	cores []Core

	id          int32
	busyCores   int32
	wakingCores int32 // cores with a wake transition in flight
	// queueLen mirrors the queued + reserved task count (the sum QueueLen
	// used to recompute by walking every core) and is maintained at each
	// mutation; RecountQueueLen is the walking oracle the invariant
	// checker compares it against.
	queueLen  int32
	wakeCount uint32 // system-level wakes, for diagnostics
	// parkedSockets has bit k set while socket k is in package C6; a
	// socket is otherwise in PC0.
	parkedSockets uint64
	pstateIdx     uint8 // into the profile's PStates: DVFS sets all cores alike
	suspended     bool  // in S3, suspend-to-RAM; otherwise in S0
	// state is the residency state recompute last recorded, an index
	// into power.ServerStates (-1 before the first), so only actual
	// changes reach the coverage map.
	state int8

	// failed marks a crashed server (fault model): it draws nothing,
	// accepts no work, and ignores every in-flight transition.
	failed         bool
	waking         bool // system-level S3 -> S0 transition in flight
	entering       bool // system suspend transition in flight
	wakeAfterEntry bool // a wake was requested mid-suspend
	delayOn        bool // the delay timer is enabled

	meters meters
	// residency holds the durations of every power.ServerStates label
	// in itself, so a state change writes the server's own lines.
	residency stats.Residency

	ext *serverExt // nil unless the server has per-core queues or a governor

	queue      []*job.Task // unified local queue
	delayTimer simtime.Time

	completedTasks int64

	// sysEv holds the suspend or wake in flight (entering or waking);
	// its handler is the server (Fire).
	sysEv engine.Event
}

// serverExt holds what only some servers have, behind one pointer in
// the record: per-core queues (QueuePerCore mode), and a DVFS
// governor's hook, which observes busy-core count changes (its
// utilization signal).
type serverExt struct {
	coreQueues   [][]*job.Task
	onBusyChange func(now simtime.Time, busy int)
}

// coreQueues reports the per-core queues, nil in QueueUnified mode.
func (s *Server) coreQueues() [][]*job.Task {
	if s.ext == nil {
		return nil
	}
	return s.ext.coreQueues
}

// meters integrates the server's three component draws — processor,
// DRAM and platform — which recompute sets together, so they share one
// clock. Each integral takes exactly the additions a stats.EnergyMeter
// would, so every energy keeps its bits.
type meters struct {
	lastT  simtime.Time
	watts  [3]float64 // since lastT
	joules [3]float64 // up to lastT
}

// The components, as indexes into meters.
const (
	mCPU = iota
	mDRAM
	mPlatform
)

// set records the three draws starting at time t.
func (m *meters) set(t simtime.Time, cpu, dram, plat float64) {
	if t < m.lastT {
		panic("server: meter time went backwards")
	}
	dt := (t - m.lastT).Seconds()
	for k := range m.joules {
		m.joules[k] += m.watts[k] * dt
	}
	m.lastT = t
	m.watts = [3]float64{cpu, dram, plat}
}

// energyTo reports component k's joules up to t, which must not
// precede the last set.
func (m *meters) energyTo(k int, t simtime.Time) float64 {
	if t < m.lastT {
		panic("server: meter read before its last set")
	}
	return m.joules[k] + m.watts[k]*(t-m.lastT).Seconds()
}

// serverStates is the residency label table every server's tracker
// shares.
var serverStates = power.ServerStates[:]

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
	if id < 0 || id > math.MaxInt32 {
		return nil, fmt.Errorf("server: ID %d out of range", id)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if id < len(f.servers) && f.servers[id] != nil {
		return nil, fmt.Errorf("server: ID %d added twice", id)
	}
	// The record and its parts come zeroed out of the farm's blocks and
	// are filled in place, field by field: no composite literal is copied
	// over them and nothing is formatted — a server's meters and tracker
	// are anonymous, the engine clock they read never runs backwards.
	batch := min(max(len(f.servers), 1), maxBatch)
	f.grow(id)
	s := &carve(&f.srvBlock, 1, batch)[0]
	s.farm, s.cfg, s.id = f, f.share(&cfg), int32(id)
	s.delayOn, s.delayTimer = cfg.DelayTimerEnabled, cfg.DelayTimer
	s.state = -1
	s.residency.Init(&serverStates)
	cores := cfg.Profile.Cores
	s.cores = carve(&f.coreBlock, cores, batch)
	if cfg.QueueMode == QueuePerCore {
		s.ext = &serverExt{coreQueues: make([][]*job.Task, cores)}
	}
	for i := range s.cores {
		c := &s.cores[i]
		c.id, c.srv = uint16(i), s
		c.refresh()
	}
	s.recompute()
	for i := range s.cores {
		s.cores[i].becomeIdle()
	}
	s.checkServerIdle()
	f.servers[id] = s
	return s, nil
}

// armSleep schedules enterSleep d from now through the farm's shared
// planner, replacing any pending deadline (Timer.Reset semantics).
func (s *Server) armSleep(d simtime.Time) {
	s.farm.planner.arm(s, s.farm.eng.Now()+d)
}

// disarmSleep cancels any pending suspend. Cheap no-op when nothing is
// armed.
func (s *Server) disarmSleep() {
	s.farm.planner.disarm(s)
}

// queueDelta adjusts the maintained queued+reserved count and the farm's
// pending aggregates.
func (s *Server) queueDelta(d int) {
	s.queueLen += int32(d)
	s.farm.totalPending += int64(d)
}

// busyDelta adjusts the busy-core count and the farm's pending aggregates
// (pending = queued + reserved + running).
func (s *Server) busyDelta(d int) {
	s.busyCores += int32(d)
	s.farm.totalPending += int64(d)
}

// ID reports the server's identifier.
func (s *Server) ID() int { return int(s.id) }

// Farm reports the farm the server belongs to.
func (s *Server) Farm() *Farm { return s.farm }

// Cores reports the number of cores.
func (s *Server) Cores() int { return len(s.cores) }

// Profile exposes the server's power profile (read-only; used for
// physics-bound checks and reporting).
func (s *Server) Profile() *power.ServerProfile { return s.cfg.Profile }

// socketOf reports which socket a core belongs to.
func (s *Server) socketOf(coreID int) int {
	return coreID / s.cfg.Profile.CoresPerSocket()
}

// parked reports whether socket sk is in package C6.
func (s *Server) parked(sk int) bool { return s.parkedSockets&(1<<sk) != 0 }

// setAllSocketsParked puts every socket in PC6 (parked) or PC0.
func (s *Server) setAllSocketsParked(parked bool) {
	s.parkedSockets = 0
	if parked {
		s.parkedSockets = 1<<s.cfg.Profile.SocketCount() - 1
	}
}

// Asleep reports whether the server is in (or suspending into) a system
// sleep state and not already waking.
func (s *Server) Asleep() bool {
	return (s.suspended || s.entering) && !s.waking
}

// syncAsleep copies Asleep into the farm's asleep set. Only enterSleep,
// beginWake and Crash can flip Asleep, and each calls this after the
// flip.
func (s *Server) syncAsleep() {
	w, bit := &s.farm.asleep[s.id/64], uint64(1)<<(s.id%64)
	if s.Asleep() {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// BusyCores reports the number of cores currently executing tasks.
func (s *Server) BusyCores() int { return int(s.busyCores) }

// QueueLen reports tasks buffered locally (all queues plus wake
// reservations, excluding running tasks). O(1): the count is maintained
// at every queue mutation rather than recomputed by walking cores.
func (s *Server) QueueLen() int { return int(s.queueLen) }

// RecountQueueLen recomputes the buffered-task count from first
// principles by walking every queue — the invariant checker's oracle for
// the maintained QueueLen counter.
func (s *Server) RecountQueueLen() int {
	n := len(s.queue)
	qs := s.coreQueues()
	for i := range s.cores {
		c := &s.cores[i]
		if qs != nil {
			n += len(qs[i])
		}
		if c.reserved() != nil {
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
	return waking != int(s.wakingCores)
}

// PendingTasks reports the server's total in-flight load: queued,
// reserved and running tasks. Global schedulers use this as the load
// signal (Sec. IV-C's "pending jobs per server").
func (s *Server) PendingTasks() int { return s.QueueLen() + int(s.busyCores) }

// CompletedTasks reports the number of tasks finished on this server.
func (s *Server) CompletedTasks() int64 { return s.completedTasks }

// WakeCount reports how many system-level wake transitions occurred.
func (s *Server) WakeCount() int64 { return int64(s.wakeCount) }

// Failed reports whether the server is crashed (fault model).
func (s *Server) Failed() bool { return s.failed }

// Crash fails the server (fault model): every running task's completion
// is canceled, all local state is discarded, the power draw drops to
// zero, and residency is billed to power.StateDown until Recover. It returns
// the orphaned tasks — running, reserved, and queued — in deterministic
// order (per-core running, then reserved, then per-core queues, then the
// unified queue) so the global scheduler can apply its drop/requeue
// policy. Crashing a failed server is a no-op returning nil.
//
// A wake or suspend in flight is canceled with every other pending event
// of the server and its cores: nothing waits for it any more.
func (s *Server) Crash() []*job.Task {
	if s.failed {
		return nil
	}
	s.failed = true
	s.disarmSleep()
	var orphans []*job.Task
	for i := range s.cores {
		if c := &s.cores[i]; c.busy {
			c.cancel()
			orphans = append(orphans, c.task)
			c.task = nil
			c.busy = false
		}
	}
	for i := range s.cores {
		if t := s.cores[i].reserved(); t != nil {
			orphans = append(orphans, t)
			s.cores[i].task = nil
		}
	}
	qs := s.coreQueues()
	for i := range s.cores {
		c := &s.cores[i]
		if qs != nil {
			orphans = append(orphans, qs[i]...)
			qs[i] = nil
		}
		c.waking, c.wakePkg = false, false
		c.cancel() // an idle promotion, or a voided wake
		c.cstate = power.C6
		c.refresh()
	}
	s.wakingCores = 0
	s.farm.eng.CancelIn(&s.sysEv) // a voided suspend or wake
	orphans = append(orphans, s.queue...)
	s.queue = nil
	s.queueDelta(-int(s.queueLen))
	s.busyDelta(-int(s.busyCores))
	s.waking, s.entering, s.wakeAfterEntry = false, false, false
	s.suspended = false // irrelevant while failed; Recover rebuilds
	s.syncAsleep()
	s.setAllSocketsParked(true)
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
	s.suspended = false
	s.setAllSocketsParked(false)
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
	qs := s.coreQueues()
	for ci := range s.cores {
		c := &s.cores[ci]
		if qs != nil {
			q := &qs[ci]
			if i := slices.Index(*q, t); i >= 0 {
				*q = slices.Delete(*q, i, i+1)
				s.queueDelta(-1)
				return true
			}
		}
		if c.task != t {
			continue
		}
		if c.waking {
			// The core's wake is committed; it finds no reservation when
			// the transition completes and simply goes idle.
			c.task = nil
			s.queueDelta(-1)
			return true
		}
		c.abortRun()
		return true
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
	t.ServerID = int(s.id)
	s.disarmSleep()
	if s.entering {
		// Suspend is committed; the wake starts when it completes.
		s.enqueue(t)
		s.wakeAfterEntry = true
		return
	}
	if s.suspended {
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
		queues := s.ext.coreQueues
		best := -1
		bestLoad := 0
		for i := range s.cores {
			c := &s.cores[i]
			load := len(queues[i])
			if c.busy || c.waking {
				load++
			}
			if best == -1 || load < bestLoad ||
				(load == bestLoad && c.speed() > s.cores[best].speed()) {
				best = i
				bestLoad = load
			}
		}
		c := &s.cores[best]
		if c.available() {
			c.assign(t)
		} else {
			queues[best] = append(queues[best], t)
			s.queueDelta(1)
		}
	default: // QueueUnified
		if c := s.pickIdleCore(); c != nil {
			c.assign(t)
		} else {
			s.enqueue(t)
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
		if sp, bsp := c.speed(), best.speed(); sp != bsp {
			if sp > bsp {
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

// enqueue appends a task to the unified queue: every task while the
// server is asleep or waking, and in unified mode any that finds no
// free core.
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
	for _, fn := range s.farm.onTaskDone {
		fn(s, t)
	}
}

// nextFor pops the next task for core c per the queue mode.
func (s *Server) nextFor(c *Core) *job.Task {
	q := &s.queue
	if qs := s.coreQueues(); qs != nil {
		q = &qs[c.id]
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
	if !s.delayOn || s.failed {
		return
	}
	if s.suspended || s.waking || s.entering {
		return
	}
	if s.busyCores > 0 || s.queueLen > 0 {
		return
	}
	s.armSleep(s.delayTimer)
}

// maybePkgC6 parks any socket whose cores have all reached C6.
func (s *Server) maybePkgC6() {
	if !s.cfg.PkgC6Enabled || s.suspended || s.entering || s.failed {
		return
	}
	prof := s.cfg.Profile
	perSocket := prof.CoresPerSocket()
	for sk := range prof.SocketCount() {
		if s.parked(sk) {
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
			s.setSocketParked(sk, true)
		}
	}
}

// setSocketParked moves one socket between PC0 and package C6.
func (s *Server) setSocketParked(sk int, parked bool) {
	if s.parked(sk) == parked {
		return
	}
	s.parkedSockets ^= 1 << sk
	s.recompute()
}

// enterSleep starts the suspend transition into S3. The server must be
// idle; stale timer fires are ignored otherwise. The suspend is
// committed: a task arriving mid-entry waits until entry completes and
// the wake path runs.
func (s *Server) enterSleep() {
	if s.failed || s.suspended || s.waking || s.entering ||
		s.busyCores > 0 || s.queueLen > 0 {
		return
	}
	s.entering = true
	s.syncAsleep()
	for i := range s.cores {
		s.cores[i].park()
	}
	s.setAllSocketsParked(true)
	s.recompute()
	s.sysAfter(s.cfg.Profile.SleepEntry.Latency)
}

// sysAfter schedules the suspend or wake in flight to complete d from
// now.
func (s *Server) sysAfter(d simtime.Time) {
	s.farm.eng.AfterIn(&s.sysEv, d, s)
}

// Fire implements engine.Handler: it completes the suspend or wake in
// flight.
func (s *Server) Fire() {
	if s.entering {
		s.sleepEntryDone()
	} else {
		s.finishWake()
	}
}

// sleepEntryDone completes the suspend transition.
func (s *Server) sleepEntryDone() {
	s.entering = false
	s.suspended = true
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
	if !s.suspended {
		return false
	}
	s.beginWake()
	return true
}

// beginWake starts the S3 -> S0 transition if not already in flight.
func (s *Server) beginWake() {
	if s.waking || !s.suspended {
		return
	}
	s.waking = true
	s.syncAsleep()
	s.wakeCount++
	s.recompute()
	s.sysAfter(s.cfg.Profile.WakeS3.Latency)
}

// finishWake completes the system wake: package powers up, queued work
// is drained onto cores (each paying its core-level C6 exit).
func (s *Server) finishWake() {
	s.waking = false
	s.suspended = false
	s.setAllSocketsParked(false)
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
	s.delayOn, s.delayTimer = enabled, d
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
	if i < 0 || i >= len(s.cfg.Profile.PStates) {
		return fmt.Errorf("server %d: P-state %d out of range", s.id, i)
	}
	s.pstateIdx = uint8(i)
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
	now := s.farm.eng.Now()
	prof := s.cfg.Profile
	var cpu, dram, plat float64
	var state int
	switch {
	case s.failed:
		// A crashed server draws nothing; its down time is billed to the
		// Down residency state and excluded from the energy envelope.
		state = stDown
	case s.waking, s.entering:
		plat = prof.PlatformS0
		dram = prof.DRAMActive
		trans := prof.WakeS3
		if s.entering {
			trans = prof.SleepEntry
		}
		cpu = trans.Watts - plat - dram
		if min := prof.PkgPC0; cpu < min {
			cpu = min
		}
		state = stWakeUp
	case s.suspended:
		dram = prof.DRAMSelfRefresh
		plat = prof.PlatformS3
		state = stSysSleep
	default: // S0
		for i := range s.cores {
			cpu += s.cores[i].draw
		}
		sockets := prof.SocketCount()
		for sk := range sockets {
			if s.parked(sk) {
				cpu += prof.PkgPC6
			} else {
				cpu += prof.PkgPC0
			}
		}
		dram = prof.DRAMIdle
		plat = prof.PlatformS0
		switch {
		case s.busyCores > 0:
			dram = prof.DRAMActive
			state = stActive
		case s.wakingCores > 0:
			state = stWakeUp
		case s.parkedSockets == 1<<sockets-1:
			state = stPkgC6
		default:
			state = stIdle
		}
	}
	s.meters.set(now, cpu, dram, plat)
	if cover := s.farm.cover; cover != nil && state != int(s.state) {
		cover.Hit(modelcov.SrvTransition(int(s.state), state))
	}
	s.state = int8(state)
	s.residency.SetStateID(now, state)
	if s.ext != nil && s.ext.onBusyChange != nil {
		s.ext.onBusyChange(now, int(s.busyCores))
	}
}

// CPUEnergyTo reports processor energy in joules up to t.
func (s *Server) CPUEnergyTo(t simtime.Time) float64 { return s.meters.energyTo(mCPU, t) }

// DRAMEnergyTo reports memory energy in joules up to t.
func (s *Server) DRAMEnergyTo(t simtime.Time) float64 { return s.meters.energyTo(mDRAM, t) }

// PlatformEnergyTo reports platform energy in joules up to t.
func (s *Server) PlatformEnergyTo(t simtime.Time) float64 {
	return s.meters.energyTo(mPlatform, t)
}

// EnergyTo reports total server energy in joules up to t.
func (s *Server) EnergyTo(t simtime.Time) float64 {
	return s.CPUEnergyTo(t) + s.DRAMEnergyTo(t) + s.PlatformEnergyTo(t)
}

// Residency exposes the state-residency tracker (Fig. 8).
func (s *Server) Residency() *stats.Residency { return &s.residency }
