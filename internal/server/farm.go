package server

import (
	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
)

// Farm groups the servers of one simulation so farm-wide questions never
// chase a pointer per server: running totals for pending and completed
// tasks (so Finalize and invariant scans read two int64s instead of
// walking N servers), and a shared sleep planner that replaces the
// one-engine-Timer-per-idle-server delay-timer scheme with a single
// timer over a deadline heap.
//
// A farm server in steady-state idle/sleep therefore costs O(1): no queued
// engine event (its suspend instant is a (deadline, seq) pair in the
// planner heap), no allocation, and no per-server work in deep scans.
type Farm struct {
	eng     *engine.Engine
	servers []*Server

	totalPending   int64
	totalCompleted int64

	planner sleepPlanner

	// What is left of the blocks Add carves server records and their
	// parts from (see carve).
	srvBlock    []Server
	coreBlock   []Core
	socketBlock []power.PkgCState
	durBlock    []simtime.Time
}

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
	f.planner.init(eng)
	return f
}

// Server returns server i in add order.
func (f *Farm) Server(i int) *Server { return f.servers[i] }

// TotalPending reports the farm-wide sum of per-server pending tasks
// (queued + reserved + running), maintained incrementally — O(1), never a
// walk.
func (f *Farm) TotalPending() int64 { return f.totalPending }

// TotalCompleted reports the farm-wide completed-task count, maintained
// incrementally.
func (f *Farm) TotalCompleted() int64 { return f.totalCompleted }

// sleepEntry is one armed suspend deadline. seq is the global arm order:
// the heap pops in (at, seq) order, so servers whose deadlines coincide
// suspend in the order they armed — exactly the engine-seq order the old
// one-timer-per-server scheme produced, which keeps transition timestamps
// byte-identical (DESIGN.md Sec. 13).
type sleepEntry struct {
	at  simtime.Time
	seq uint64
	srv *Server
}

// sleepPlanner multiplexes every farm server's sleep-state delay timer
// onto one engine.Timer armed at the earliest pending deadline. Disarms
// are lazy: the entry stays in the heap and is recognized as stale when
// popped (the server's sleepSeq moved on), with periodic compaction so
// the heap never grows past ~2x the live entry count.
type sleepPlanner struct {
	eng   *engine.Engine
	timer *engine.Timer
	heap  []sleepEntry
	stale int    // entries whose server re-armed or disarmed since push
	seq   uint64 // arm counter; FIFO tie-break among equal deadlines

	armedAt  simtime.Time // deadline the shared timer is armed for
	timerSet bool
}

func (p *sleepPlanner) init(eng *engine.Engine) {
	p.eng = eng
	p.timer = engine.NewTimer(eng, p.fire)
}

// arm registers (or re-registers, moving the deadline like Timer.Reset)
// server s to suspend at instant at.
func (p *sleepPlanner) arm(s *Server, at simtime.Time) {
	if s.sleepArmed {
		p.stale++ // the previous entry's seq no longer matches: stale
	}
	p.seq++
	s.sleepArmed, s.sleepSeq = true, p.seq
	p.push(sleepEntry{at: at, seq: p.seq, srv: s})
	p.maybeCompact()
	if !p.timerSet || at < p.armedAt {
		p.armedAt, p.timerSet = at, true
		p.timer.Reset(at - p.eng.Now())
	}
}

// disarm cancels server s's pending suspend. The heap entry is left in
// place and skipped as stale when popped.
func (p *sleepPlanner) disarm(s *Server) {
	if !s.sleepArmed {
		return
	}
	s.sleepArmed = false
	p.stale++
	p.maybeCompact()
}

// fire pops every due live entry in (deadline, arm-seq) order and starts
// its server's suspend, then re-arms the shared timer at the next live
// deadline.
func (p *sleepPlanner) fire() {
	now := p.eng.Now()
	p.timerSet = false
	for len(p.heap) > 0 {
		e := p.heap[0]
		if !e.srv.sleepArmed || e.srv.sleepSeq != e.seq {
			p.pop()
			p.stale--
			continue
		}
		if e.at > now {
			p.armedAt, p.timerSet = e.at, true
			p.timer.Reset(e.at - now)
			return
		}
		p.pop()
		e.srv.sleepArmed = false
		e.srv.enterSleep()
	}
}

// maybeCompact rebuilds the heap without stale entries once they dominate
// (>64 and more than half), keeping memory proportional to live arms.
func (p *sleepPlanner) maybeCompact() {
	if p.stale <= 64 || p.stale*2 <= len(p.heap) {
		return
	}
	live := p.heap[:0]
	for _, e := range p.heap {
		if e.srv.sleepArmed && e.srv.sleepSeq == e.seq {
			live = append(live, e)
		}
	}
	p.heap = live
	p.stale = 0
	for i := len(p.heap)/2 - 1; i >= 0; i-- {
		p.siftDown(i)
	}
}

// less orders entries by (deadline, arm seq).
func (p *sleepPlanner) less(i, j int) bool {
	a, b := p.heap[i], p.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (p *sleepPlanner) push(e sleepEntry) {
	p.heap = append(p.heap, e)
	i := len(p.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(i, parent) {
			break
		}
		p.heap[i], p.heap[parent] = p.heap[parent], p.heap[i]
		i = parent
	}
}

func (p *sleepPlanner) pop() {
	n := len(p.heap) - 1
	p.heap[0] = p.heap[n]
	p.heap[n] = sleepEntry{} // release the *Server reference
	p.heap = p.heap[:n]
	if n > 0 {
		p.siftDown(0)
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
		p.heap[i], p.heap[min] = p.heap[min], p.heap[i]
		i = min
	}
}
