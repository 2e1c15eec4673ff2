// Package engine implements the discrete-event simulation core of HolDCSim.
//
// The engine maintains a virtual clock and a two-tier ladder (calendar)
// queue of pending events. Events are plain closures scheduled for a point
// in virtual time; ties are broken by scheduling order (a monotonically
// increasing sequence number), which makes every run deterministic for a
// fixed seed.
//
// Three mechanisms keep the hot path allocation-free and sub-logarithmic
// (see DESIGN.md, "Engine internals"):
//
//   - Ladder queue: near-future events land in fixed-width time buckets
//     (O(1) enqueue for the dominant timer-churn workload); far-future
//     events overflow into an unsorted spill tier that is re-bucketed
//     lazily — with an adaptively chosen bucket width — once the clock
//     reaches it. The earliest bucket is kept as a small binary heap, so
//     the worst case (every event in one bucket) degenerates to the old
//     global heap rather than anything slower.
//   - Event pool: fired and swept events return to a free list and are
//     recycled, so steady-state scheduling performs zero allocations.
//     Handles carry a generation counter; a stale Handle to a recycled
//     event is inert and can neither cancel nor observe the new occupant.
//   - Lazy cancellation: Cancel is an O(1) tombstone. Tombstones are
//     swept when popped, and a background compaction runs when they
//     outnumber live events, bounding memory under arm/cancel churn.
//
// The engine is single-threaded by design: data center simulations at this
// abstraction level are dominated by event ordering, and a lock-free
// sequential loop is both faster and exactly reproducible. (This mirrors
// the paper's description of HolDCSim as a light-weight event-driven
// platform able to scale past 20K servers.)
package engine

import (
	"fmt"

	"holdcsim/internal/simtime"
)

const (
	// numBuckets is the ladder width: the near window spans
	// numBuckets*width of virtual time.
	numBuckets = 256
	// poolBlock is how many events one pool growth allocates.
	poolBlock = 256
	// sweepMinTombstones gates compaction so small queues never pay for
	// a sweep.
	sweepMinTombstones = 64
	// initialWidth is the bucket width before the first spill re-bucket
	// adapts it to the workload's real event horizon.
	initialWidth = simtime.Millisecond
)

// event states. An event is free (in the pool), queued, or tombstoned.
const (
	stateFree = iota
	stateQueued
	stateCanceled
)

// event is one pooled queue entry. Callers never see it directly; they
// hold Handles, which remain valid across the event's recycling.
type event struct {
	at    simtime.Time
	seq   uint64
	fn    func()
	gen   uint32
	state uint8
}

// Handle identifies one scheduled event. It is a small value type: copy
// it freely. The zero Handle is inert. A Handle outlives its event safely:
// once the event fires, is canceled and swept, or is recycled for a new
// scheduling, the generation check makes every method a no-op.
type Handle struct {
	ev  *event
	gen uint32
}

// Pending reports whether the event is still queued and not canceled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.state == stateQueued
}

// Engine is a discrete-event simulator. The zero value is not usable;
// call New.
type Engine struct {
	now simtime.Time
	seq uint64

	// bottom is the earliest tier: a small binary heap ordered by
	// (at, seq) holding every queued event with at < base.
	bottom []*event

	// buckets is the near tier: a ring of unsorted fixed-width buckets.
	// Slot (cur+j)%numBuckets covers [base+j*width, base+(j+1)*width).
	buckets    [numBuckets][]*event
	cur        int
	base       simtime.Time // exclusive upper bound of bottom's span
	width      simtime.Time
	nearCount  int          // events (incl. tombstones) in buckets
	spillStart simtime.Time // events at or beyond this go to spill

	// spill is the far tier: unsorted, append-only between re-buckets.
	spill []*event

	// forever holds at==simtime.Forever sentinels (e.g. "never" timers).
	// They sort after every real timestamp, FIFO among themselves, and
	// would otherwise break the adaptive width computation.
	forever []*event

	live      int // queued, not canceled, across all tiers
	canceled  int // tombstones across all tiers
	free      []*event
	freeBlock []event // current pool block being handed out

	// Dispatched counts events executed since New; exposed for the
	// scalability benchmarks (Table I).
	Dispatched uint64
}

// New returns an empty engine with the clock at the simulation epoch.
func New() *Engine {
	e := &Engine{width: initialWidth}
	e.spillStart = saturatingWindowEnd(0, initialWidth)
	e.bottom = make([]*event, 0, 64)
	return e
}

// saturatingWindowEnd computes base + numBuckets*width without
// overflowing past simtime.Forever.
func saturatingWindowEnd(base, width simtime.Time) simtime.Time {
	if width > (simtime.Forever-base)/numBuckets {
		return simtime.Forever
	}
	return base + numBuckets*width
}

// Now reports the current virtual time.
func (e *Engine) Now() simtime.Time { return e.now }

// alloc takes an event from the pool, growing it block-wise so steady
// state never allocates.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		return ev
	}
	if len(e.freeBlock) == 0 {
		e.freeBlock = make([]event, poolBlock)
	}
	ev := &e.freeBlock[0]
	e.freeBlock = e.freeBlock[1:]
	return ev
}

// release recycles an event into the pool. Bumping the generation makes
// every outstanding Handle to it inert.
func (e *Engine) release(ev *event) {
	ev.fn = nil
	ev.state = stateFree
	ev.gen++
	e.free = append(e.free, ev)
}

// Schedule queues fn to run at absolute virtual time at.
// Scheduling in the past panics: it always indicates a model bug.
func (e *Engine) Schedule(at simtime.Time, fn func()) Handle {
	if at < e.now {
		panic(fmt.Sprintf("engine: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("engine: schedule with nil func")
	}
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	ev.fn = fn
	ev.state = stateQueued
	e.seq++
	e.live++
	e.place(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// place routes an event to the tier covering its timestamp. Branches are
// ordered hottest-first: near-term events dominate every workload.
func (e *Engine) place(ev *event) {
	if ev.at < e.base {
		e.bottomPush(ev)
		return
	}
	if ev.at < e.spillStart {
		j := int((ev.at - e.base) / e.width)
		slot := (e.cur + j) % numBuckets
		e.buckets[slot] = append(e.buckets[slot], ev)
		e.nearCount++
		return
	}
	if ev.at == simtime.Forever {
		e.forever = append(e.forever, ev)
		return
	}
	e.spill = append(e.spill, ev)
}

// After queues fn to run d from now. Negative d panics.
func (e *Engine) After(d simtime.Time, fn func()) Handle {
	return e.Schedule(e.now+d, fn)
}

// Every runs fn at absolute time first and then every period for as long
// as the next firing is no later than until (simtime.Forever = no end).
// It re-arms after fn returns, so events fn schedules are sequenced
// before the next firing.
func (e *Engine) Every(first, period, until simtime.Time, fn func()) {
	var tick func()
	tick = func() {
		fn()
		if e.now+period <= until {
			e.Schedule(e.now+period, tick)
		}
	}
	e.Schedule(first, tick)
}

// Cancel tombstones the event named by h if it has not fired. It is O(1);
// the entry is reclaimed when popped or at the next compaction sweep.
// Safe to call with the zero Handle or a stale one.
func (e *Engine) Cancel(h Handle) {
	if !h.Pending() {
		return
	}
	h.ev.state = stateCanceled
	e.live--
	e.canceled++
	e.maybeSweep()
}

// maybeSweep compacts tombstones once they outnumber live events, so
// arm/cancel churn cannot grow memory without bound.
func (e *Engine) maybeSweep() {
	if e.canceled < sweepMinTombstones || e.canceled < e.live {
		return
	}
	e.bottom = sweepSlice(e, e.bottom)
	heapify(e.bottom)
	for i := range e.buckets {
		if len(e.buckets[i]) == 0 {
			continue
		}
		before := len(e.buckets[i])
		e.buckets[i] = sweepSlice(e, e.buckets[i])
		e.nearCount -= before - len(e.buckets[i])
	}
	e.spill = sweepSlice(e, e.spill)
	e.forever = sweepSlice(e, e.forever)
	e.canceled = 0
}

// sweepSlice filters tombstoned events out of s in place, releasing them.
func sweepSlice(e *Engine, s []*event) []*event {
	kept := s[:0]
	for _, ev := range s {
		if ev.state == stateCanceled {
			e.release(ev)
			continue
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(s); i++ {
		s[i] = nil
	}
	return kept
}

// nextLive exposes the earliest pending event at the top of the bottom
// heap, advancing the ladder and sweeping tombstones as needed. Returns
// nil when the queue is empty.
func (e *Engine) nextLive() *event {
	for {
		for len(e.bottom) > 0 {
			top := e.bottom[0]
			if top.state == stateCanceled {
				e.bottomPop()
				e.canceled--
				e.release(top)
				continue
			}
			return top
		}
		if e.nearCount > 0 {
			e.advance()
			continue
		}
		if len(e.spill) > 0 {
			e.rebucket()
			continue
		}
		// Only the forever tier can be left; FIFO (== seq) order.
		for len(e.forever) > 0 {
			ev := e.forever[0]
			if ev.state == stateCanceled {
				e.forever[0] = nil
				e.forever = e.forever[1:]
				e.canceled--
				e.release(ev)
				continue
			}
			return ev
		}
		return nil
	}
}

// advance moves the next non-empty near bucket into the bottom heap,
// stepping base forward one width per bucket.
func (e *Engine) advance() {
	for e.nearCount > 0 {
		if e.width > simtime.Forever-e.base {
			// The window cannot step forward without wrapping the time
			// axis (events near simtime.Forever with a huge adapted
			// width). Collapse to pure-heap mode instead.
			e.degenerate()
			return
		}
		slot := e.cur
		b := e.buckets[slot]
		e.base += e.width
		e.cur = (e.cur + 1) % numBuckets
		if len(b) == 0 {
			continue
		}
		e.nearCount -= len(b)
		e.bottom = append(e.bottom, b...)
		for i := range b {
			b[i] = nil
		}
		e.buckets[slot] = b[:0]
		heapify(e.bottom)
		return
	}
}

// degenerate collapses the bucket and spill tiers into the bottom heap
// and freezes base at Forever, turning the engine into a plain binary
// heap. Only reachable when event timestamps approach simtime.Forever,
// where a ladder window can no longer be represented; ordering stays
// exact because the heap orders globally by (at, seq).
func (e *Engine) degenerate() {
	for i := range e.buckets {
		b := e.buckets[i]
		if len(b) == 0 {
			continue
		}
		e.bottom = append(e.bottom, b...)
		for j := range b {
			b[j] = nil
		}
		e.buckets[i] = b[:0]
	}
	e.nearCount = 0
	e.bottom = append(e.bottom, e.spill...)
	for i := range e.spill {
		e.spill[i] = nil
	}
	e.spill = e.spill[:0]
	e.base = simtime.Forever
	e.spillStart = simtime.Forever
	heapify(e.bottom)
}

// rebucket rebuilds the ladder from the spill tier: the bucket width is
// re-derived from the spill's actual time span (the calendar-queue
// adaptation), then every spill event is redistributed. Called only when
// the bottom and near tiers are empty, so ordering is preserved.
func (e *Engine) rebucket() {
	// Sweep tombstones and find the live span in one pass.
	spill := sweepSlice(e, e.spill)
	e.canceled -= len(e.spill) - len(spill)
	e.spill = spill
	if len(spill) == 0 {
		return
	}
	lo, hi := spill[0].at, spill[0].at
	for _, ev := range spill[1:] {
		if ev.at < lo {
			lo = ev.at
		}
		if ev.at > hi {
			hi = ev.at
		}
	}
	// Width such that [lo, hi] fits in the near window with the first
	// width-span going to the bottom heap. A small spill (e.g. a single
	// event trickling past the window as the clock marches forward) is
	// not a density sample worth shrinking the horizon for: collapsing
	// the window would make every subsequent far-future event trigger
	// another re-bucket.
	w := (hi-lo)/(numBuckets-1) + 1
	if len(spill) < numBuckets && w < e.width {
		w = e.width
	}
	e.width = w
	if w > simtime.Forever-lo {
		e.base = simtime.Forever
	} else {
		e.base = lo + w
	}
	e.cur = 0
	e.spillStart = saturatingWindowEnd(e.base, e.width)
	for _, ev := range spill {
		e.place(ev)
	}
	heapify(e.bottom)
	for i := range spill {
		spill[i] = nil
	}
	e.spill = spill[:0]
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	var ev *event
	if len(e.bottom) > 0 && e.bottom[0].state == stateQueued {
		// Fast path: a live event is already at the heap top.
		ev = e.bottom[0]
		e.bottomPop()
	} else {
		ev = e.nextLive()
		if ev == nil {
			return false
		}
		if len(e.bottom) > 0 && e.bottom[0] == ev {
			e.bottomPop()
		} else {
			// nextLive only surfaces a forever-tier event once every
			// other tier is empty.
			e.forever[0] = nil
			e.forever = e.forever[1:]
		}
	}
	e.now = ev.at
	e.Dispatched++
	e.live--
	fn := ev.fn
	// Release before running so fn's own rescheduling can reuse the
	// slot; the generation bump keeps outstanding Handles inert.
	e.release(ev)
	fn()
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= end, then advances the clock
// to end (even if the queue still holds later events).
func (e *Engine) RunUntil(end simtime.Time) {
	for {
		next := e.nextLive()
		if next == nil || next.at > end {
			break
		}
		e.Step()
	}
	if e.now < end {
		e.now = end
	}
}

// ---------------------------------------------------------------------
// bottom heap: a specialized binary min-heap ordered by (at, seq).
// ---------------------------------------------------------------------

func lessEv(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) bottomPush(ev *event) {
	e.bottom = append(e.bottom, ev)
	h := e.bottom
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !lessEv(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (e *Engine) bottomPop() *event {
	h := e.bottom
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	e.bottom = h[:n]
	siftDown(e.bottom, 0)
	return top
}

func siftDown(h []*event, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && lessEv(h[r], h[l]) {
			least = r
		}
		if !lessEv(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

func heapify(h []*event) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}
