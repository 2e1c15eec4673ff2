// Package engine implements the discrete-event simulation core of HolDCSim.
//
// The engine maintains a virtual clock and a ladder (calendar) queue of
// pending events. An event names a Handler, whose Fire runs at a point in
// virtual time: a model object that owns its event (a core, a packet, a
// flow, an arrival process) implements Fire itself and embeds the
// event's record (Event), and anything else schedules a plain func
// through Schedule. Ties are broken by scheduling order (a monotonically
// increasing sequence number), which makes every run deterministic for
// a fixed seed.
//
// Six mechanisms keep the hot path allocation-free and sub-logarithmic
// (see DESIGN.md, "Engine internals"):
//
//   - Ladder queue: near-future events land in rungs of fixed-width time
//     buckets (O(1) enqueue); far-future events overflow into an unsorted
//     spill tier that is re-bucketed lazily — laying out a new top rung
//     with an adaptively chosen bucket width — once the clock reaches it.
//     Every bucket is an intrusive FIFO list, so no bucket grows or keeps
//     capacity.
//   - Finer rungs and a small bottom heap: a bucket the clock reaches is
//     handed down once. If it is already in (at, seq) order it becomes
//     the run, a lane of its own (below); if it is crowded over a wide
//     span it spawns a finer rung of buckets over that span (Tang, Goh
//     and Thng's Ladder Queue); otherwise it is heapified. A heap that
//     direct pushes grow past splitAt is itself moved into a new rung.
//   - Delay lanes: an event scheduled d >= 0 after now, where d is one
//     of up to numLanes-1 recurring delays, skips the ladder and is
//     appended to that delay's lane, a FIFO list that is in (at, seq)
//     order by construction. A delay claims a free lane the second time
//     in a row a schedule finds none for it; a lane that empties stays
//     its delay's, and hot for a while, so one-off delays cannot take
//     it. The remaining lane, runLane, holds the run. A loser tree over
//     the lane heads names the earliest, and the ladder never hands a
//     bucket down past it. Step pops the smaller of the heap top and the
//     earliest lane head.
//   - Event pool: fired and canceled func events return to a free list
//     and are recycled, so steady-state scheduling performs zero
//     allocations. Handles carry a generation counter; a stale Handle to
//     a recycled event is inert and can neither cancel nor observe the
//     new occupant.
//   - Owned records: a model object's one pending event lives in the
//     object (Event), so its dispatch loads the object's own cache lines
//     and no pooled entry. A record is queued, ordered, canceled and
//     retired exactly as a pooled event; the generation's parity tells
//     release to leave it with its owner.
//   - Eager cancellation: every event records where it is queued, so
//     Cancel takes it out of its tier and recycles it at once: O(1) from
//     a lane, a bucket or the spill, O(log n) from the heap. No tier ever
//     holds a canceled event.
//
// Schedule rejects a time in the past and simtime.Forever, the key of an
// empty lane: no queued event is ever at Forever.
//
// The engine is single-threaded by design: data center simulations at this
// abstraction level are dominated by event ordering, and a lock-free
// sequential loop is both faster and exactly reproducible. (This mirrors
// the paper's description of HolDCSim as a light-weight event-driven
// platform able to scale past 20K servers.)
package engine

import (
	"fmt"
	"math"
	"math/bits"

	"holdcsim/internal/simtime"
)

const (
	// numBuckets is the bucket count of every rung: the top rung spans
	// numBuckets*width of virtual time.
	numBuckets = 256
	// poolBlock is how many events one pool growth allocates.
	poolBlock = 256
	// initialWidth is the bucket width before the first spill re-bucket
	// adapts it to the workload's real event horizon.
	initialWidth = simtime.Millisecond
	// splitAt is the most events the bottom heap holds before a crowded
	// bucket spawns a rung instead, or a direct push splits the heap.
	splitAt = 32
	// minSpan is the narrowest time span worth a rung of numBuckets
	// buckets: below it the events are near-ties and stay in the heap.
	minSpan = numBuckets * simtime.Nanosecond
	// numLanes is how many lanes there are: the run and numLanes-1
	// recurring delays; laneWin is a loser tree over exactly this many
	// leaves.
	numLanes = 8
	// runLane is the run's lane, which no delay may claim. Its delay is
	// -1, so a laneTab slot that names it names no lane.
	runLane = 0
	// laneBits is the bit width of laneHash: laneTab has one slot per
	// hash value.
	laneBits = 6
	// laneShared marks a laneTab slot that two lane delays hash to: a
	// lookup that misses its lane compares every lane delay.
	laneShared = numLanes
	// laneCold is how many schedules a lane stays hot after it empties:
	// no other delay may claim it until then.
	laneCold = 4096
)

// Where a queued event is, other than in the heap (event.pos >= 0, its
// index there): lane i at posLane-i, bucket j of the rung that spans its
// time at posBucket-j, or the spill's entry k at posSpill-k.
const (
	posLane   = -1
	posBucket = posLane - numLanes
	posSpill  = posBucket - numBuckets
)

// event is one queue entry: pooled, or a model object's own record
// (Event). Callers never see it directly; they hold Handles, which
// remain valid across the event's recycling. The fields a hand-down walk
// reads come first, so the walk touches one cache line per event more
// often than not. gen's parity tells the two kinds apart: a pooled
// event's is odd, an owned record's even, and release steps it by two.
type event struct {
	at   simtime.Time
	seq  uint64
	next *event // successor in the bucket, lane or free list
	prev *event // predecessor in its list; stale at the head
	gen  uint32
	pos  int32 // where it is queued: a heap index, or a pos* tag
	h    Handler
}

// Lock and Unlock make an event vet's noCopy marker: copylocks rejects a
// by-value copy of an event or of any struct that holds one, an Event
// embedded in a model object included. A copy would leave the queue
// linked to the original's address. They do nothing.
func (*event) Lock()   {}
func (*event) Unlock() {}

// Event is the queue record of a model object's one pending event. The
// object embeds it beside the state its Fire reads and queues the Fire
// in it with ScheduleIn or AfterIn, so dispatching the event loads the
// object's own cache lines and no pooled entry; the pool serves the
// func events of Schedule and After. An owned record is ordered, laned,
// canceled and handled exactly as a pooled event: it takes its (at,
// seq) when it is queued, and firing or canceling it bumps its
// generation, so a Handle to an earlier arming is inert. Queuing a
// record that is still queued moves it: the pending arming is canceled
// first, which consumes no sequence number. An Event must not be copied
// (go vet's copylocks enforces it); the zero value is an unqueued
// record.
type Event struct {
	ev event
}

// Pending reports whether the record is queued: armed, and neither
// fired nor canceled since.
func (r *Event) Pending() bool { return r.ev.h != nil }

// Handler is what an event runs: Fire is called once, at the event's
// time. A model object that owns its events implements it, so the event
// names the object itself and a dispatch reads no callback of its own.
type Handler interface{ Fire() }

// funcHandler runs a plain func as a Handler. A func value is one
// pointer, so wrapping it allocates nothing.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// list is an intrusive, doubly linked FIFO of events. Appends happen in
// scheduling order, so a list filled only by Schedule is in seq order.
type list struct {
	head, tail *event
	n          int
}

func (l *list) push(ev *event) {
	ev.next, ev.prev = nil, l.tail
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
	l.n++
}

func (l *list) pop() *event {
	ev := l.head
	l.head = ev.next
	if l.head == nil {
		l.tail = nil
	}
	l.n--
	return ev
}

// unlink takes ev out of the list, wherever it is.
func (l *list) unlink(ev *event) {
	if l.head == ev {
		l.head, ev.prev = ev.next, nil
	} else {
		ev.prev.next = ev.next
	}
	if l.tail == ev {
		l.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	l.n--
}

// rung is one ladder level: numBuckets lists over [start, end). Bucket j
// covers [edge(j), edge(j+1)); the last bucket also takes everything up
// to end. The header comes first, so place reads end from the first
// cache line.
type rung struct {
	start   simtime.Time
	end     simtime.Time
	width   simtime.Time
	cur     int // next bucket to hand down; earlier ones are empty
	n       int // events in buckets
	buckets [numBuckets]list
}

func (r *rung) add(ev *event) {
	j := (ev.at - r.start) / r.width
	if j > numBuckets-1 {
		j = numBuckets - 1
	}
	ev.pos = posBucket - int32(j)
	r.buckets[j].push(ev)
	r.n++
}

// edge is the start of bucket j, capped at end without overflowing.
func (r *rung) edge(j int) simtime.Time {
	if j >= numBuckets || simtime.Time(j) > (r.end-r.start)/r.width {
		return r.end
	}
	return r.start + simtime.Time(j)*r.width
}

// Handle identifies one scheduled event. It is a small value type: copy
// it freely. The zero Handle is inert. A Handle outlives its event safely:
// once the event fires or is canceled, it is recycled, and the generation
// check makes every method a no-op.
type Handle struct {
	ev  *event
	gen uint32
}

// Pending reports whether the event is still queued: it has neither
// fired nor been canceled.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen
}

// Counters are the engine's self-statistics: plain counts, one increment
// each, that say how events travel through the tiers.
type Counters struct {
	BottomPops   uint64 // pops from the bottom heap, split drains included
	BottomLen    uint64 // heap length summed over those pops
	DirectPushes uint64 // events scheduled below lim into the heap
	Rungs        uint64 // rungs spawned by a hand-down
	Splits       uint64 // bottom heaps moved into a new rung
	Runs         uint64 // hand-downs already in (at, seq) order
	Rebuckets    uint64 // spill re-buckets
	LanePushes   uint64 // events scheduled into a delay lane
	LaneClaims   uint64 // delay lanes claimed by a new recurring delay
}

// Engine is a discrete-event simulator. The zero value is not usable;
// call New. The fields that Schedule, Cancel and a heap pop touch come
// first and fill five cache lines; spread further apart they cost the
// cancel-and-re-arm microbenchmarks up to 8% (DESIGN.md Sec. 2).
type Engine struct {
	now  simtime.Time
	seq  uint64
	live int    // queued across all tiers
	free *event // pool free list, linked through next
	lim  simtime.Time

	// bottom is the earliest tier: a binary heap ordered by (at, seq).
	// It holds every queued event with at < lim that is not in a lane,
	// and no other tier but the lanes holds one.
	bottom []*event

	// lanes bypass the ladder: lanes[i] holds, in (at, seq) order, the
	// events scheduled laneDelay[i] after their scheduling time, and
	// lanes[runLane] the run, a handed-down bucket that was already in
	// (at, seq) order; its laneDelay is -1, like a lane never claimed. A
	// lane is free while it is empty (its bit in laneBusy is clear); it
	// keeps its delay until another delay claims it. laneWin is a loser
	// tree: node k's children are 2k and 2k+1, leaf numLanes+i is lane
	// i, nodes 1 to numLanes-1 each name the lane that lost their match,
	// and laneWin[0] names the lane with the earliest head. Matches
	// compare the (at, seq) keys of the lane heads, kept in laneAt and
	// laneSeq; an empty lane's key is (Forever, MaxUint64). Lane i is hot
	// until seq reaches laneHot[i], missed is the delay of the last
	// schedule that found no lane, and no claim is tried before seq
	// reaches claimAt.
	missed   simtime.Time
	laneWin  [numLanes]uint8
	laneBusy uint8
	claimAt  uint64
	laneAt   [numLanes]simtime.Time

	// rungs tile [lim, rungs[0].end), the deepest (and earliest) last.
	// rungs[0], the top rung, is laid out by New and every re-bucket and
	// is never retired. Entries past len are retired rungs kept for
	// reuse.
	rungs []*rung

	// Dispatched counts events executed since New; exposed for the
	// scalability benchmarks (Table I).
	Dispatched uint64
	// Count holds the tier statistics.
	Count Counters

	laneSeq   [numLanes]uint64
	lanes     [numLanes]list
	laneDelay [numLanes]simtime.Time
	// laneTab maps laneHash(d) to the lane holding delay d, or to
	// runLane when no lane delay hashes there, plus laneShared when two
	// do.
	laneTab [1 << laneBits]uint8
	laneHot [numLanes]uint64

	// spill is the far tier: unsorted, appended to between re-buckets.
	// It holds the events at or beyond the top rung's end.
	spill []*event

	freeBlock []event // current pool block being handed out
}

// New returns an empty engine with the clock at the simulation epoch.
func New() *Engine {
	e := &Engine{bottom: make([]*event, 0, 64), missed: -1}
	e.spawn(0, saturatingWindowEnd(0, initialWidth), initialWidth)
	for i := range e.lanes {
		e.laneDelay[i] = -1
		e.laneAt[i], e.laneSeq[i] = simtime.Forever, math.MaxUint64
	}
	e.rebuild()
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
// state never allocates. A new block's events get their odd generation
// as they are first handed out.
func (e *Engine) alloc() *event {
	if ev := e.free; ev != nil {
		e.free = ev.next
		return ev
	}
	if len(e.freeBlock) == 0 {
		e.freeBlock = make([]event, poolBlock)
	}
	ev := &e.freeBlock[0]
	e.freeBlock = e.freeBlock[1:]
	ev.gen = 1
	return ev
}

// release retires an event that fired or was canceled. Bumping the
// generation makes every outstanding Handle to it inert; a pooled event
// then goes back on the free list, and an owned record stays with its
// owner.
func (e *Engine) release(ev *event) {
	ev.h = nil
	ev.gen += 2
	if ev.gen&1 != 0 {
		ev.next = e.free
		e.free = ev
	}
}

// Schedule queues fn to run at absolute virtual time at, in a pooled
// event. Scheduling in the past or at simtime.Forever panics: it always
// indicates a model bug.
func (e *Engine) Schedule(at simtime.Time, fn func()) Handle {
	if fn == nil {
		panic("engine: schedule with nil func")
	}
	return e.push(nil, at, funcHandler(fn))
}

// ScheduleIn queues h's Fire to run at absolute virtual time at, in the
// owner's record r, first canceling r's pending arming if it has one.
// The same times panic as in Schedule.
func (e *Engine) ScheduleIn(r *Event, at simtime.Time, h Handler) Handle {
	return e.push(&r.ev, at, h)
}

// CancelIn cancels r's pending arming, if it has one, as Cancel does.
func (e *Engine) CancelIn(r *Event) {
	if r.ev.h != nil {
		e.unqueue(&r.ev)
	}
}

// push queues h's Fire at at in ev, an owner's record, or in a pooled
// event when ev is nil; a record still queued is taken out first. Every
// entry point is a call of push, so each inlines and an event costs one
// call. A time in the past or at Forever panics, as Schedule says.
func (e *Engine) push(ev *event, at simtime.Time, h Handler) Handle {
	if at < e.now || at == simtime.Forever {
		panic(fmt.Sprintf("engine: schedule at %v, now %v: past or Forever", at, e.now))
	}
	if h == nil {
		panic("engine: schedule with nil handler")
	}
	switch {
	case ev == nil:
		ev = e.alloc()
	case ev.h != nil:
		e.unqueue(ev)
	}
	ev.at = at
	ev.seq = e.seq
	ev.h = h
	e.seq++
	e.live++
	d := at - e.now
	// A lone event has nothing to be ordered against, so the heap costs
	// it nothing: it skips the lanes, and a chain of them never claims
	// one.
	if e.live > 1 {
		i := e.laneFor(d)
		if i < 0 && d == e.missed && e.seq >= e.claimAt {
			i = e.claimLane(d)
		}
		if i >= 0 {
			// Append to the lane. Every event in it was scheduled d
			// ahead, so appends arrive in (at, seq) order.
			e.Count.LanePushes++
			ev.pos = posLane - int32(i)
			l := &e.lanes[i]
			l.push(ev)
			if l.n == 1 {
				e.relane(i)
			}
			return Handle{ev: ev, gen: ev.gen}
		}
	}
	e.missed = d
	e.place(ev)
	return Handle{ev: ev, gen: ev.gen}
}

// laneHash is delay d's slot in laneTab: its low laneBits bits folded
// with the next ones, so whole microseconds and milliseconds spread too.
// It costs no multiply, on a path every Schedule takes.
func laneHash(d simtime.Time) uint {
	return uint(d^d>>laneBits) & (1<<laneBits - 1)
}

// laneFor returns the lane that delay d holds, or -1: one probe of
// laneTab and one compare, and a scan of the lane delays only when the
// slot is shared.
func (e *Engine) laneFor(d simtime.Time) int {
	t := e.laneTab[laneHash(d)]
	if i := t & (numLanes - 1); e.laneDelay[i] == d {
		return int(i)
	}
	if t&laneShared != 0 {
		for i, ld := range &e.laneDelay {
			if ld == d {
				return i
			}
		}
	}
	return -1
}

// claimLane gives delay d the free lane that went cold first and returns
// it, or returns -1 when every free lane is still hot; then no claim is
// tried again before claimAt, when the first of them turns cold. A delay
// claims a lane the second time in a row a schedule finds none for it,
// and the hot rule keeps one-off delays from taking the lane of a delay
// that recurs, which refills its lane soon after it empties.
func (e *Engine) claimLane(d simtime.Time) int {
	i := -1
	for free := ^e.laneBusy &^ (1 << runLane); free != 0; free &= free - 1 {
		if j := bits.TrailingZeros8(free); i < 0 || e.laneHot[j] < e.laneHot[i] {
			i = j
		}
	}
	if i < 0 {
		return -1
	}
	if e.laneHot[i] > e.seq {
		e.claimAt = e.laneHot[i]
		return -1
	}
	e.laneDelay[i] = d
	e.laneTab = [1 << laneBits]uint8{}
	for j, ld := range &e.laneDelay {
		if ld < 0 {
			continue
		}
		if t := &e.laneTab[laneHash(ld)]; *t == runLane {
			*t = uint8(j)
		} else {
			*t |= laneShared
		}
	}
	e.Count.LaneClaims++
	return i
}

// laneHead is the earliest lane head, nil when every lane is empty.
func (e *Engine) laneHead() *event { return e.lanes[e.laneWin[0]&(numLanes-1)].head }

// lanePop pops the earliest lane head and re-keys its lane.
func (e *Engine) lanePop() *event {
	i := int(e.laneWin[0] & (numLanes - 1))
	ev := e.lanes[i].pop()
	e.relane(i)
	return ev
}

// relane copies lane i's head into the tree's keys and brings the loser
// tree up to date: a replay of lane i's path when it is the winner,
// whatever its new key, and a rebuild when it is not. An empty lane is
// free and keyed (Forever, MaxUint64), which every lane head beats; one
// that has just emptied stays hot, and no other delay may claim it, for
// laneCold schedules.
func (e *Engine) relane(i int) {
	at, seq := simtime.Forever, uint64(math.MaxUint64)
	if h := e.lanes[i].head; h != nil {
		at, seq = h.at, h.seq
		e.laneBusy |= 1 << i
	} else if e.laneBusy&(1<<i) != 0 {
		e.laneBusy &^= 1 << i
		e.laneHot[i] = e.seq + laneCold
	}
	e.laneAt[i], e.laneSeq[i] = at, seq
	switch {
	case int(e.laneWin[0]) != i:
		e.rebuild()
	case e.laneBusy&^(1<<i) != 0:
		e.replay(i, uint64(at), seq)
	}
	// Otherwise lane i wins and every other lane is empty: whatever
	// lane i's key now is, it loses to no stored lane, and the tree
	// stands.
}

// beats reports, as 1 or 0, whether key (bAt, bSeq) is less than (aAt,
// aSeq): the borrow out of the 128-bit difference b - a. Times are never
// negative, so they compare as unsigned.
func beats(bAt, bSeq, aAt, aSeq uint64) uint64 {
	_, c := bits.Sub64(bSeq, aSeq, 0)
	_, c = bits.Sub64(bAt, aAt, c)
	return c
}

// replay re-plays the matches on lane i's path after its key changed
// to (at, seq). Lane i must be the winner, so each node on the path
// holds the winner of the other subtree below it. The candidate and its
// key stay in registers, and each match swaps them with the stored
// loser under a mask instead of a branch.
func (e *Engine) replay(i int, at, seq uint64) {
	w := uint8(i & (numLanes - 1))
	for k := uint(numLanes+w) >> 1; k > 0; k >>= 1 {
		node := &e.laneWin[k&(numLanes-1)]
		s := *node
		sAt, sSeq := uint64(e.laneAt[s&(numLanes-1)]), e.laneSeq[s&(numLanes-1)]
		m := -beats(sAt, sSeq, at, seq)
		x := (w ^ s) & uint8(m)
		*node = s ^ x
		w ^= x
		at ^= (at ^ sAt) & m
		seq ^= (seq ^ sSeq) & m
	}
	e.laneWin[0] = w
}

// rebuild plays all numLanes-1 matches afresh, from the leaves up.
func (e *Engine) rebuild() {
	var up [2 * numLanes]uint8 // the lane each node sends up
	for i := range numLanes {
		up[numLanes+i] = uint8(i)
	}
	for k := numLanes - 1; k > 0; k-- {
		a, b := up[2*k], up[2*k+1]
		m := uint8(-beats(uint64(e.laneAt[b&(numLanes-1)]), e.laneSeq[b&(numLanes-1)],
			uint64(e.laneAt[a&(numLanes-1)]), e.laneSeq[a&(numLanes-1)]))
		x := (a ^ b) & m
		up[k], e.laneWin[k] = a^x, b^x
	}
	e.laneWin[0] = up[1]
}

// place routes an event to the tier covering its timestamp: below lim
// to the heap, anything else to the deepest rung that ends past it, and
// what no rung takes to the spill.
func (e *Engine) place(ev *event) {
	switch {
	case ev.at < e.lim:
		e.Count.DirectPushes++
		e.bottomPush(ev)
		if len(e.bottom) > splitAt {
			e.splitBottom()
		}
	case ev.at < e.rungs[0].end:
		e.rungFor(ev.at).add(ev)
	default:
		ev.pos = posSpill - int32(len(e.spill))
		e.spill = append(e.spill, ev)
	}
}

// rungFor is the rung that spans t, which must lie in [lim,
// rungs[0].end): the deepest rung that ends past t, since the rungs
// tile that span, the deepest (and earliest) last.
func (e *Engine) rungFor(t simtime.Time) *rung {
	i := len(e.rungs) - 1
	for t >= e.rungs[i].end {
		i--
	}
	return e.rungs[i]
}

// After queues fn to run d from now. Negative d panics.
func (e *Engine) After(d simtime.Time, fn func()) Handle {
	return e.Schedule(e.now+d, fn)
}

// AfterIn queues h's Fire to run d from now in r, as ScheduleIn does.
// Negative d panics.
func (e *Engine) AfterIn(r *Event, d simtime.Time, h Handler) Handle {
	return e.push(&r.ev, e.now+d, h)
}

// Every runs fn at absolute time first and then every period for as long
// as the next firing is no later than until (simtime.Forever = no end).
// It re-arms after fn returns, so events fn schedules are sequenced
// before the next firing. A period that is not positive panics: the
// clock would never pass first.
func (e *Engine) Every(first, period, until simtime.Time, fn func()) {
	if period <= 0 {
		panic(fmt.Sprintf("engine: every with period %v", period))
	}
	var tick func()
	tick = func() {
		fn()
		if e.now+period <= until {
			e.Schedule(e.now+period, tick)
		}
	}
	e.Schedule(first, tick)
}

// Cancel takes the event named by h out of its tier and retires it, if
// it has not fired: O(1) from a lane, a bucket or the spill, O(log n)
// from the heap. Safe to call with the zero Handle or a stale one.
func (e *Engine) Cancel(h Handle) {
	if h.Pending() {
		e.unqueue(h.ev)
	}
}

// unqueue takes ev, a queued event, out of its tier and retires it.
func (e *Engine) unqueue(ev *event) {
	switch p := ev.pos; {
	case p >= 0:
		e.bottomRemove(int(p))
	case p <= posSpill:
		// The spill is unsorted: its last entry fills the gap.
		n := len(e.spill) - 1
		last := e.spill[n]
		last.pos = p
		e.spill[posSpill-p] = last
		e.spill[n] = nil
		e.spill = e.spill[:n]
	case p <= posBucket:
		r := e.rungFor(ev.at)
		r.buckets[posBucket-p].unlink(ev)
		r.n--
	default:
		i := int(posLane - p)
		l := &e.lanes[i]
		head := l.head == ev
		l.unlink(ev)
		if head {
			e.relane(i)
		}
	}
	e.live--
	e.release(ev)
}

// nextLive exposes the earliest pending event — the smaller of the heap
// top and the earliest lane head — handing buckets down as needed.
// Returns nil when the queue is empty.
func (e *Engine) nextLive() *event {
	for {
		if len(e.bottom) > splitAt {
			// The heap grew while a live run refused the split, or a
			// hand-down heapified near-ties below a wider lim.
			e.splitBottom()
		}
		var lh *event
		if e.laneBusy != 0 {
			lh = e.laneHead()
		}
		var ev *event
		if len(e.bottom) > 0 {
			ev = e.bottom[0]
		}
		switch {
		case ev == nil:
			if lh != nil && lh.at < e.lim {
				// Every event left in the ladder is at or after lim, so
				// the ladder must not advance past this lane head.
				return lh
			}
		case lh != nil && lessEv(lh, ev):
			return lh
		default:
			return ev
		}
		switch {
		case e.advanceRung():
		case len(e.spill) > 0:
			e.rebucket()
		case lh != nil:
			// The ladder is empty.
			e.skipTo(lh.at)
			return lh
		default:
			return nil
		}
	}
}

// advanceRung hands the deepest rung's next non-empty bucket down, or
// retires the rung once it is drained. It reports false, and retires
// nothing, when the top rung is the only one left and it is empty: the
// top rung keeps taking pushes until the next re-bucket replaces it.
func (e *Engine) advanceRung() bool {
	r := e.rungs[len(e.rungs)-1]
	for r.n > 0 {
		b := r.buckets[r.cur]
		r.buckets[r.cur] = list{}
		r.cur++
		if b.n == 0 {
			continue
		}
		r.n -= b.n
		e.handDown(b, r.edge(r.cur))
		return true
	}
	if len(e.rungs) == 1 {
		return false
	}
	e.rungs = e.rungs[:len(e.rungs)-1]
	e.lim = r.end
	return true
}

// handDown moves a bucket whose events all lie below hi into the bottom,
// which must be empty, run lane included. One walk finds its order and
// span and tags its events as the run's. Already in (at, seq) order, it
// becomes the run; more than splitAt events over at least minSpan spawn
// a finer rung from their earliest; anything else is heapified.
func (e *Engine) handDown(b list, hi simtime.Time) {
	e.lim = hi
	sorted := true
	lo, top := b.head.at, b.head.at
	for prev, ev := b.head, b.head; ev != nil; prev, ev = ev, ev.next {
		ev.pos = posLane - runLane
		if lessEv(ev, prev) {
			sorted = false
		}
		lo, top = min(lo, ev.at), max(top, ev.at)
	}
	switch {
	case sorted:
		e.lanes[runLane] = b
		e.relane(runLane)
		e.Count.Runs++
	case b.n > splitAt && top-lo >= minSpan:
		// About one event per bucket: the first min(n, 256) buckets
		// span the events, and the rest reach on toward hi for later
		// pushes.
		r := e.spawn(lo, hi, (top-lo)/simtime.Time(min(b.n, numBuckets))+1)
		for ev := b.head; ev != nil; {
			next := ev.next
			r.add(ev)
			ev = next
		}
		e.Count.Rungs++
	default:
		for ev := b.head; ev != nil; ev = ev.next {
			ev.pos = int32(len(e.bottom))
			e.bottom = append(e.bottom, ev)
		}
		heapify(e.bottom)
	}
}

// spawn pushes an empty rung over [start, end) as the deepest, reusing a
// retired one when there is one.
func (e *Engine) spawn(start, end, width simtime.Time) *rung {
	n := len(e.rungs)
	if n < cap(e.rungs) {
		e.rungs = e.rungs[:n+1]
	} else {
		e.rungs = append(e.rungs, nil)
	}
	if e.rungs[n] == nil {
		e.rungs[n] = new(rung)
	}
	r := e.rungs[n]
	r.start, r.end, r.width, r.cur, r.n = start, end, width, 0, 0
	e.lim = start
	return r
}

// splitBottom moves a crowded heap into a new rung over [heap min, lim),
// unless a live run reaches the heap's minimum (lim cannot drop below
// the run's last event, or a hand-down would replace the live run) or
// the span is too narrow for a rung.
func (e *Engine) splitBottom() {
	lo := e.bottom[0].at
	if run := &e.lanes[runLane]; run.n > 0 && run.tail.at >= lo || e.lim-lo < minSpan {
		return
	}
	r := e.spawn(lo, e.lim, (e.lim-lo)/numBuckets+1)
	// Drain the heap in order, so each bucket starts sorted and a
	// same-time burst pushed after the split still forms a run.
	for len(e.bottom) > 0 {
		r.add(e.bottomPop())
	}
	e.Count.Splits++
}

// rebucket rebuilds the ladder from the spill tier: the top rung's
// bucket width is re-derived from the spill's time span (the
// calendar-queue adaptation), then every spill event is redistributed.
// Called only when the bottom and the rungs are empty and the spill is
// not, so ordering is preserved.
func (e *Engine) rebucket() {
	e.Count.Rebuckets++
	spill := e.spill
	lo, hi := spill[0].at, spill[0].at
	for _, ev := range spill[1:] {
		lo, hi = min(lo, ev.at), max(hi, ev.at)
	}
	// Width such that [lo, hi] fits in a new top rung from lo:
	// 256 buckets of (hi-lo)/255+1 reach past hi, so every spill event
	// lands in a bucket and is handed down from there. A small spill
	// (e.g. a single event trickling past the window as the clock
	// marches forward) is not a density sample worth shrinking the
	// horizon for: collapsing the window would make every subsequent
	// far-future event trigger another re-bucket.
	w := (hi-lo)/(numBuckets-1) + 1
	if len(spill) < numBuckets && w < e.rungs[0].width {
		w = e.rungs[0].width
	}
	e.rungs = e.rungs[:0]
	e.spawn(lo, saturatingWindowEnd(lo, w), w)
	for _, ev := range spill {
		e.place(ev)
	}
	clear(spill)
	e.spill = spill[:0]
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	var ev *event
	if n := len(e.bottom); n <= splitAt {
		// Fast paths, with a heap that has nothing to split: the heap
		// top, if it is live and strictly ahead of every lane head; or
		// the earliest lane head, if it is live and strictly ahead of
		// the heap top, or of lim when the heap is empty. The lanes'
		// keys stand in for the lane heads, so a heap pop reads no lane
		// event.
		switch w := e.laneWin[0] & (numLanes - 1); {
		case n > 0 && (e.laneBusy == 0 || e.bottom[0].at < e.laneAt[w]):
			ev = e.bottomPop()
		case e.laneBusy != 0 && e.laneAt[w] < e.lim && (n == 0 || e.laneAt[w] < e.bottom[0].at):
			ev = e.lanePop()
		}
	}
	if ev == nil {
		if ev = e.nextLive(); ev == nil {
			return false
		}
		if len(e.bottom) > 0 && ev == e.bottom[0] {
			e.bottomPop()
		} else {
			e.lanePop()
		}
	}
	e.now = ev.at
	e.Dispatched++
	e.live--
	h := ev.h
	// Release before running so the handler's own rescheduling can
	// reuse the slot, or re-arm its own record; the generation bump
	// keeps outstanding Handles inert.
	e.release(ev)
	h.Fire()
	return true
}

// skipTo moves lim past t over an empty ladder, so the lane events that
// follow take Step's fast path: it hands down the top rung's empty
// buckets through t's, or, with t past the top rung's end, lays out a
// top rung of the same width from t and hands down its first bucket.
func (e *Engine) skipTo(t simtime.Time) {
	r := e.rungs[0]
	if t >= r.end {
		e.rungs = e.rungs[:0]
		r = e.spawn(t, saturatingWindowEnd(t, r.width), r.width)
	}
	r.cur = int(min((t-r.start)/r.width, numBuckets-1)) + 1
	e.lim = r.edge(r.cur)
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
	ev.pos = int32(len(e.bottom))
	e.bottom = append(e.bottom, ev)
	siftUp(e.bottom, len(e.bottom)-1)
}

func (e *Engine) bottomPop() *event {
	h := e.bottom
	e.Count.BottomPops++
	e.Count.BottomLen += uint64(len(h))
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h[n] = nil
	e.bottom = h[:n]
	if n > 0 {
		h[0].pos = 0
		siftDown(e.bottom, 0)
	}
	return top
}

// bottomRemove takes the heap's entry i out: the last entry takes its
// place and sifts whichever way it must.
func (e *Engine) bottomRemove(i int) {
	h := e.bottom
	n := len(h) - 1
	h[i] = h[n]
	h[n] = nil
	e.bottom = h[:n]
	if i < n {
		h[i].pos = int32(i)
		siftDown(e.bottom, i)
		siftUp(e.bottom, i)
	}
}

func siftUp(h []*event, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !lessEv(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].pos, h[parent].pos = int32(i), int32(parent)
		i = parent
	}
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
		h[i].pos, h[least].pos = int32(i), int32(least)
		i = least
	}
}

func heapify(h []*event) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}
