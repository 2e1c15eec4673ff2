package server

import (
	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

// Farm groups the servers of one simulation so farm-wide questions never
// chase a pointer per server: running totals for pending and completed
// tasks (so Finalize and invariant scans read two int64s instead of
// walking N servers), and a shared sleep planner that replaces the
// one-engine-timer-per-idle-server delay-timer scheme with a single
// event over a deadline heap.
//
// A farm server in steady-state idle/sleep therefore costs O(1): no queued
// engine event (its suspend instant is a (deadline, seq) pair in the
// planner heap), no allocation, and no per-server work in deep scans.
//
// What every server of a run shares lives here once: the task-completion
// subscribers, the coverage map, and one Config per distinct value.
type Farm struct {
	eng *engine.Engine
	// servers holds each server at its ID: IDs index every by-server
	// slice of the farm.
	servers []*Server

	totalPending   int64
	totalCompleted int64

	// asleep has bit i%64 of word i/64 set while server i is Asleep:
	// placement reads awake and sleeping servers off it without visiting
	// them. Every write that can flip a server's Asleep is followed by
	// syncAsleep.
	asleep []uint64

	planner sleepPlanner

	onTaskDone []func(*Server, *job.Task)
	cover      *modelcov.Map
	configs    map[configKey]*Config

	// What is left of the blocks Add carves server records and their
	// cores from (see carve).
	srvBlock  []Server
	coreBlock []Core
}

// configKey identifies a Config's value apart from its delay timer,
// which each server keeps for itself. Core speeds are told apart by
// their backing array: configs that share one are equal, as a copy is.
type configKey struct {
	profile      *power.ServerProfile
	queueMode    QueueMode
	coreSpeeds   *float64
	idleToC1     simtime.Time
	idleToC3     simtime.Time
	idleToC6     simtime.Time
	pkgC6Enabled bool
}

// share returns the farm's one copy of cfg's value, making it on first
// use. The copy's delay timer is zero: a server's is its own.
func (f *Farm) share(cfg *Config) *Config {
	k := configKey{profile: cfg.Profile, queueMode: cfg.QueueMode,
		idleToC1: cfg.IdleToC1, idleToC3: cfg.IdleToC3, idleToC6: cfg.IdleToC6,
		pkgC6Enabled: cfg.PkgC6Enabled}
	if len(cfg.CoreSpeeds) > 0 {
		k.coreSpeeds = &cfg.CoreSpeeds[0]
	}
	if c := f.configs[k]; c != nil {
		return c
	}
	c := new(Config)
	*c = *cfg
	c.DelayTimerEnabled, c.DelayTimer = false, 0
	if f.configs == nil {
		f.configs = make(map[configKey]*Config)
	}
	f.configs[k] = c
	return c
}

// OnTaskDone subscribes a completion callback invoked when any task
// finishes on any of the farm's servers. The scheduler registers first
// (DAG and job bookkeeping); additional subscribers (traffic hooks,
// probes) run after it in registration order. The *job.Task is valid
// until the event that finished it returns; once its whole job is done
// the simulation may recycle both (see sched.Scheduler.OnJobDone).
func (f *Farm) OnTaskDone(fn func(*Server, *job.Task)) {
	f.onTaskDone = append(f.onTaskDone, fn)
}

// SetCover attaches a model-state coverage map: every residency label
// change of any of the farm's servers from here on records a transition
// feature. Pass nil to detach. Coverage recording never alters
// simulation behavior.
func (f *Farm) SetCover(m *modelcov.Map) { f.cover = m }

// maxBatch caps how many servers' worth of records one block holds. A
// new block holds as many as the farm already has, up to this, so a farm
// of one stays small and a large one allocates a few blocks per hundred.
const maxBatch = 256

// carve returns the next n zeroed elements of *block, first replacing a
// block too short for them with room for batch such requests. Addresses
// are stable: a block is never grown, only left to the records in it.
func carve[T any](block *[]T, n, batch int) []T {
	if len(*block) < n {
		*block = make([]T, n*batch)
	}
	out := (*block)[:n:n]
	*block = (*block)[n:]
	return out
}

// NewFarm returns an empty farm bound to the engine. Servers are added
// with Add; the farm's sleep planner owns the single delay-timer event
// shared by all of them.
func NewFarm(eng *engine.Engine) *Farm {
	f := &Farm{eng: eng}
	f.planner.farm = f
	return f
}

// Server returns the server added with ID i: nil for an ID below the
// highest added that no server was added with.
func (f *Farm) Server(i int) *Server { return f.servers[i] }

// grow extends the farm's by-ID slices — its servers, its asleep set and
// the planner's index — to cover ID id.
func (f *Farm) grow(id int) {
	for len(f.servers) <= id {
		f.servers = append(f.servers, nil)
		f.planner.idx = append(f.planner.idx, -1)
	}
	if w := id / 64; w >= len(f.asleep) {
		f.asleep = append(f.asleep, make([]uint64, w+1-len(f.asleep))...)
	}
}

// Asleep reports the farm's asleep set by server ID: bit i%64 of word
// i/64 is set while server i is Asleep. The words are the farm's own and
// stay current; they cover every added ID.
func (f *Farm) Asleep() []uint64 { return f.asleep }

// TotalPending reports the farm-wide sum of per-server pending tasks
// (queued + reserved + running), maintained incrementally — O(1), never a
// walk.
func (f *Farm) TotalPending() int64 { return f.totalPending }

// TotalCompleted reports the farm-wide completed-task count, maintained
// incrementally.
func (f *Farm) TotalCompleted() int64 { return f.totalCompleted }

// sleepEntry is one armed suspend deadline, of the server with ID id.
// seq is the global arm order: the heap pops in (at, seq) order, so
// servers whose deadlines coincide suspend in the order they armed —
// exactly the engine-seq order the old one-timer-per-server scheme
// produced, which keeps transition timestamps byte-identical (DESIGN.md
// Sec. 13). An entry holds no pointer, so the heap costs the collector
// nothing to scan and a sift writes no barrier.
type sleepEntry struct {
	at  simtime.Time
	seq uint64
	id  int32
}

// sleepPlanner multiplexes every farm server's sleep-state delay timer
// onto one engine event (ev, whose Fire is the planner's) at the
// earliest pending deadline. The heap holds exactly the armed servers,
// and idx[id] is server id's entry index, -1 when unarmed, so a re-arm
// moves the entry in place and a disarm takes it out at once; a sift
// writes the index of the entries it moves there, not into their
// servers' records.
type sleepPlanner struct {
	farm *Farm
	heap []sleepEntry
	idx  []int32
	seq  uint64 // arm counter; FIFO tie-break among equal deadlines

	ev      engine.Event
	armedAt simtime.Time // the deadline ev is scheduled for, while Pending
}

// arm registers (or re-registers, moving the deadline like Timer.Reset)
// server s to suspend at instant at.
func (p *sleepPlanner) arm(s *Server, at simtime.Time) {
	p.seq++
	e := sleepEntry{at: at, seq: p.seq, id: s.id}
	if i := int(p.idx[s.id]); i >= 0 {
		p.heap[i] = e
		p.fix(i)
	} else {
		p.heap = append(p.heap, e)
		p.idx[s.id] = int32(len(p.heap) - 1)
		p.siftUp(len(p.heap) - 1)
	}
	if !p.ev.Pending() || at < p.armedAt {
		p.reset(at)
	}
}

// reset moves the planner's event to instant at: the record's pending
// arming is canceled, then it is queued afresh, so a re-arm takes the
// same engine sequence numbers the delay timers always took.
func (p *sleepPlanner) reset(at simtime.Time) {
	p.armedAt = at
	p.farm.eng.ScheduleIn(&p.ev, at, p)
}

// disarm cancels server s's pending suspend. The shared event stays
// scheduled: when it fires it finds the next deadline, if any, and
// re-arms. Stopping it here would move the re-arm points, and with them
// the engine sequence numbers the goldens pin (DESIGN.md Sec. 13.1).
func (p *sleepPlanner) disarm(s *Server) {
	if i := p.idx[s.id]; i >= 0 {
		p.remove(int(i))
	}
}

// Fire implements engine.Handler: it pops every due entry in (deadline,
// arm-seq) order and starts its server's suspend, then re-arms the
// shared event at the next deadline. The engine retires an event before
// running it, so ev is not Pending here.
func (p *sleepPlanner) Fire() {
	now := p.farm.eng.Now()
	for len(p.heap) > 0 {
		e := p.heap[0]
		if e.at > now {
			p.reset(e.at)
			return
		}
		p.remove(0)
		p.farm.servers[e.id].enterSleep()
	}
}

// remove takes entry i out of the heap: the last entry fills the gap and
// sifts whichever way it must.
func (p *sleepPlanner) remove(i int) {
	p.idx[p.heap[i].id] = -1
	n := len(p.heap) - 1
	last := p.heap[n]
	p.heap = p.heap[:n]
	if i < n {
		p.heap[i] = last
		p.idx[last.id] = int32(i)
		p.fix(i)
	}
}

// less orders entries by (deadline, arm seq).
func (p *sleepPlanner) less(i, j int) bool {
	a, b := &p.heap[i], &p.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// swap exchanges entries i and j and keeps their index entries.
func (p *sleepPlanner) swap(i, j int) {
	p.heap[i], p.heap[j] = p.heap[j], p.heap[i]
	p.idx[p.heap[i].id], p.idx[p.heap[j].id] = int32(i), int32(j)
}

// fix restores heap order after entry i changed.
func (p *sleepPlanner) fix(i int) {
	p.siftDown(i)
	p.siftUp(i)
}

func (p *sleepPlanner) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(i, parent) {
			return
		}
		p.swap(i, parent)
		i = parent
	}
}

func (p *sleepPlanner) siftDown(i int) {
	n := len(p.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && p.less(l, min) {
			min = l
		}
		if r < n && p.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		p.swap(i, min)
		i = min
	}
}
