package engine

import (
	"container/heap"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"holdcsim/internal/simtime"
)

// ---------------------------------------------------------------------
// Reference implementation: the pre-ladder binary-heap scheduler, kept
// here so determinism tests can prove the ladder queue dispatches the
// exact same sequence (DESIGN.md, "Determinism contract").
// ---------------------------------------------------------------------

type refEvent struct {
	at       simtime.Time
	seq      uint64
	id       int
	canceled bool
	index    int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now  simtime.Time
	seq  uint64
	q    refHeap
	next map[int]*refEvent
}

func newRefEngine() *refEngine { return &refEngine{next: map[int]*refEvent{}} }

func (r *refEngine) schedule(at simtime.Time, id int) {
	ev := &refEvent{at: at, seq: r.seq, id: id}
	r.seq++
	heap.Push(&r.q, ev)
	r.next[id] = ev
}

func (r *refEngine) cancel(id int) {
	if ev, ok := r.next[id]; ok && !ev.canceled && ev.index >= 0 {
		ev.canceled = true
		heap.Remove(&r.q, ev.index)
	}
}

func (r *refEngine) step() (int, simtime.Time, bool) {
	for len(r.q) > 0 {
		ev := heap.Pop(&r.q).(*refEvent)
		if ev.canceled {
			continue
		}
		r.now = ev.at
		return ev.id, ev.at, true
	}
	return 0, 0, false
}

// dispatchRecord is one fired event, identified by the scheduler-assigned
// id and the time it fired.
type dispatchRecord struct {
	id int
	at simtime.Time
}

// scriptOp is one step of a generated schedule/cancel/step script, so the
// exact same workload can be replayed against both implementations.
type scriptOp struct {
	kind   int // 0 = schedule, 1 = cancel, 2 = step
	delay  simtime.Time
	target int // for cancel: index into previously scheduled ids
}

func genScript(r *rand.Rand, n int) []scriptOp {
	ops := make([]scriptOp, n)
	for i := range ops {
		var op scriptOp
		switch k := r.Intn(10); {
		case k < 5: // schedule, mixed horizons to cross all tiers
			op.kind = 0
			switch r.Intn(4) {
			case 0:
				op.delay = simtime.Time(r.Int63n(int64(simtime.Microsecond)))
			case 1:
				op.delay = simtime.Time(r.Int63n(int64(simtime.Millisecond)))
			case 2:
				op.delay = simtime.Time(r.Int63n(int64(10 * simtime.Second)))
			default:
				op.delay = simtime.Time(r.Int63n(int64(3600 * simtime.Second)))
			}
		case k < 7:
			op.kind = 1
			op.target = r.Int()
		default:
			op.kind = 2
		}
		ops[i] = op
	}
	return ops
}

// runLadderScript replays a script on the real engine, returning the
// dispatch sequence. A non-nil watch sees the engine before every op,
// and for a cancel the Handle it names (the zero Handle otherwise).
func runLadderScript(ops []scriptOp, watch func(*Engine, scriptOp, Handle)) []dispatchRecord {
	e := New()
	var fired []dispatchRecord
	handles := map[int]Handle{}
	nextID := 0
	for _, op := range ops {
		if watch != nil {
			var target Handle
			if op.kind == 1 && nextID > 0 {
				target = handles[op.target%nextID]
			}
			watch(e, op, target)
		}
		switch op.kind {
		case 0:
			id := nextID
			nextID++
			handles[id] = e.Schedule(e.Now()+op.delay, func() {
				fired = append(fired, dispatchRecord{id: id, at: e.Now()})
			})
		case 1:
			if nextID > 0 {
				e.Cancel(handles[op.target%nextID])
			}
		case 2:
			e.Step()
		}
	}
	e.Run()
	return fired
}

// runRefScript replays the same script on the reference heap.
func runRefScript(ops []scriptOp) []dispatchRecord {
	r := newRefEngine()
	var fired []dispatchRecord
	nextID := 0
	for _, op := range ops {
		switch op.kind {
		case 0:
			r.schedule(r.now+op.delay, nextID)
			nextID++
		case 1:
			if nextID > 0 {
				r.cancel(op.target % nextID)
			}
		case 2:
			if id, at, ok := r.step(); ok {
				fired = append(fired, dispatchRecord{id: id, at: at})
			}
		}
	}
	for {
		id, at, ok := r.step()
		if !ok {
			break
		}
		fired = append(fired, dispatchRecord{id: id, at: at})
	}
	return fired
}

// TestLadderMatchesHeapDeterminism: for the same seed, the ladder queue
// must dispatch the bit-identical sequence the reference binary heap
// does — same events, same order, same timestamps.
func TestLadderMatchesHeapDeterminism(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		ops := genScript(rand.New(rand.NewSource(seed)), 2000)
		got := runLadderScript(ops, nil)
		want := runRefScript(ops)
		if len(got) != len(want) {
			t.Fatalf("seed %d: ladder fired %d events, heap fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: dispatch %d diverged: ladder %+v, heap %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestLadderSelfDeterminism: two runs of the same script produce the
// identical Dispatched trajectory.
func TestLadderSelfDeterminism(t *testing.T) {
	ops := genScript(rand.New(rand.NewSource(42)), 5000)
	a := runLadderScript(ops, nil)
	b := runLadderScript(ops, nil)
	if len(a) != len(b) {
		t.Fatalf("replay fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPoolHandleSafety: Handles to fired and canceled events must be
// inert — unable to cancel or observe the pool slot's new occupant.
func TestPoolHandleSafety(t *testing.T) {
	e := New()
	fired := 0
	h1 := e.Schedule(10, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("event fired %d times", fired)
	}
	if h1.Pending() {
		t.Error("handle to fired event reports pending")
	}
	// The pool recycles the slot for the next event; the stale handle
	// must not be able to cancel the new occupant.
	h2 := e.Schedule(20, func() { fired++ })
	e.Cancel(h1) // stale: must be a no-op
	if !h2.Pending() {
		t.Fatal("stale-handle Cancel hit the recycled event")
	}
	e.Run()
	if fired != 2 {
		t.Fatalf("recycled event did not fire; fired = %d", fired)
	}
	// A canceled event is recycled at once: its handle goes inert, and
	// neither a double cancel nor a cancel after the slot is reused
	// touches the new occupant.
	h3 := e.Schedule(30, func() { fired++ })
	e.Cancel(h3)
	if h3.Pending() {
		t.Error("canceled handle still pending")
	}
	e.Cancel(h3)
	h4 := e.Schedule(40, func() { fired++ })
	if h4.ev != h3.ev {
		t.Fatal("the canceled event was not recycled first")
	}
	e.Cancel(h3)
	if !h4.Pending() {
		t.Fatal("stale-handle Cancel hit the recycled event")
	}
	e.Run()
	if fired != 3 {
		t.Errorf("fired = %d, want 3: the canceled event fired or the recycled one did not", fired)
	}
}

// TestPoolReuseUnderChurn: heavy cancel/reschedule churn must recycle
// events through the pool without a stale handle ever firing or blocking
// a live one.
func TestPoolReuseUnderChurn(t *testing.T) {
	e := New()
	const slots = 100
	firedBy := make([]int, slots)
	handles := make([]Handle, slots)
	stale := make([]Handle, 0, slots*10)
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		for i := 0; i < slots; i++ {
			if handles[i].Pending() {
				e.Cancel(handles[i])
				stale = append(stale, handles[i])
			}
			i := i
			handles[i] = e.Schedule(e.Now()+simtime.Time(1+r.Int63n(int64(simtime.Second))), func() {
				firedBy[i]++
			})
		}
		// Poke every stale handle: none of these may do anything.
		for _, h := range stale {
			e.Cancel(h)
			if h.Pending() {
				t.Fatal("stale handle became pending again")
			}
		}
		e.RunUntil(e.Now() + simtime.Millisecond)
	}
	e.Run()
	for i, n := range firedBy {
		if n == 0 {
			t.Fatalf("slot %d: final scheduled event never fired", i)
		}
	}
}

// TestRandomizedScheduleCancelInterleaving is the fuzz-style stress: a
// long random interleaving of schedules (across every tier: bottom,
// bucket, spill), cancels, and steps, checking the global invariants the
// engine must uphold.
func TestRandomizedScheduleCancelInterleaving(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		e := New()
		type tracked struct {
			h        Handle
			at       simtime.Time
			canceled bool
			fired    *bool
		}
		var all []*tracked
		var lastAt simtime.Time
		dispatched := 0
		for op := 0; op < 5000; op++ {
			switch k := r.Intn(10); {
			case k < 5:
				var d simtime.Time
				switch r.Intn(4) {
				case 0:
					d = 0
				case 1:
					d = simtime.Time(r.Int63n(int64(simtime.Microsecond)))
				case 2:
					d = simtime.Time(r.Int63n(int64(simtime.Second)))
				default:
					d = simtime.Time(r.Int63n(int64(24 * 3600 * simtime.Second)))
				}
				fired := false
				tr := &tracked{at: e.Now() + d, fired: &fired}
				tr.h = e.Schedule(tr.at, func() { fired = true })
				all = append(all, tr)
			case k < 8:
				if len(all) > 0 {
					tr := all[r.Intn(len(all))]
					if tr.h.Pending() {
						tr.canceled = true
					}
					e.Cancel(tr.h)
				}
			default:
				before := e.Now()
				if e.Step() {
					dispatched++
					if e.Now() < before {
						t.Fatalf("seed %d: clock went backwards %v -> %v", seed, before, e.Now())
					}
					if e.Now() < lastAt {
						t.Fatalf("seed %d: dispatch out of order", seed)
					}
					lastAt = e.Now()
				}
			}
		}
		e.Run()
		for i, tr := range all {
			if tr.canceled && *tr.fired {
				t.Fatalf("seed %d: event %d fired after cancel", seed, i)
			}
			if !tr.canceled && !*tr.fired {
				t.Fatalf("seed %d: live event %d (at %v) never fired", seed, i, tr.at)
			}
		}
		if e.live != 0 {
			t.Fatalf("seed %d: Len = %d after drain, want 0", seed, e.live)
		}
	}
}

// TestNearForeverTimestampsNoOverflow: finite events spanning up to just
// below simtime.Forever force a huge adapted bucket width, and handing
// the top rung's buckets down across it must cap their edges at
// Forever instead of wrapping negative (which would corrupt bucket
// routing and could panic on a negative bucket index).
func TestNearForeverTimestampsNoOverflow(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(simtime.Second, func() { got = append(got, 1) })
	e.Schedule(simtime.Forever-5, func() { got = append(got, 3) })
	e.Schedule(2*simtime.Second, func() { got = append(got, 2) })
	// Fire the first event, then keep scheduling while the engine works
	// through the enormous span: placements after the last bucket is
	// handed down must still dispatch in global (at, seq) order.
	e.Step()
	e.Schedule(3*simtime.Second, func() { got = append(got, 20) })
	e.Run()
	want := []int{1, 2, 20, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	// The engine must remain usable in degenerate heap mode.
	e.Schedule(e.Now(), func() { got = append(got, 4) })
	e.Run()
	if got[len(got)-1] != 4 {
		t.Fatalf("post-collapse schedule did not fire: %v", got)
	}
}

// ---------------------------------------------------------------------
// Rungs, splits, runs and the Forever edge cap, against the reference heap.
// ---------------------------------------------------------------------

// shape is a named script aimed at one path below the top rung, with
// the tier counters its run must end on: they pin how events travel
// through the tiers, not just the order they fire in.
type shape struct {
	name string
	ops  []scriptOp
	want Counters
}

// scriptBuilder appends ops and tracks how many events were scheduled,
// so a cancel can name a recent one.
type scriptBuilder struct {
	ops []scriptOp
	n   int
}

func (b *scriptBuilder) schedule(d simtime.Time) {
	b.ops = append(b.ops, scriptOp{kind: 0, delay: d})
	b.n++
}

func (b *scriptBuilder) cancel(back int) {
	b.ops = append(b.ops, scriptOp{kind: 1, target: b.n - 1 - back})
}

func (b *scriptBuilder) step() { b.ops = append(b.ops, scriptOp{kind: 2}) }

// fillLanes claims every lane but the run's with a delay of its own, an
// hour and more out, so the lanes stay busy and the events after it take
// the ladder.
func (b *scriptBuilder) fillLanes() {
	for i := 0; i < numLanes-1; i++ {
		d := 3600*simtime.Second + simtime.Time(i)*simtime.Second
		b.schedule(d)
		b.schedule(d)
	}
}

func uniform(r *rand.Rand, lo, hi simtime.Time) simtime.Time {
	return lo + simtime.Time(r.Int63n(int64(hi-lo)))
}

// rungShapes are the five workloads the rungs were built for, a
// start-up burst, a dense farm stream, packet hops, cancel churn and
// timestamps at the end of the time axis, and the lane paths after them.
func rungShapes() []shape {
	r := rand.New(rand.NewSource(1))
	var shapes []shape

	// One event per core of a 20,480-server, four-core farm at one
	// instant 100 µs ahead, scheduled below lim while a run of t=0
	// events is live. That run ends before the burst, so it does not
	// refuse the split: the first 33 split the heap and the rest follow
	// them into the rung's first bucket, a run once handed down. Then a
	// stream pushes below lim while the burst drains, and halfway
	// through 40 zero-delay schedules land in the heap at the burst's
	// own instant: the live run reaches the heap's minimum and refuses
	// every split until it drains. Every claimable lane is busy first,
	// so the burst's one delay and delay 0 take the ladder.
	b := &scriptBuilder{}
	b.fillLanes()
	b.schedule(0)
	b.schedule(0)
	b.step()
	for i := 0; i < 81920; i++ {
		b.schedule(100 * simtime.Microsecond)
	}
	for i := 0; i < 4000; i++ {
		b.step()
		b.schedule(uniform(r, simtime.Microsecond, simtime.Millisecond))
		if i == 2000 {
			for j := 0; j < 40; j++ {
				b.schedule(0)
			}
		}
	}
	shapes = append(shapes, shape{"burst", b.ops, Counters{
		BottomPops: 3906, BottomLen: 31657, DirectPushes: 86, Rungs: 1,
		Splits: 2, Runs: 149, Rebuckets: 1, LanePushes: 7, LaneClaims: 7}})

	// farm-rr's steady state: 20,000 pending, delays 1 µs to 10 ms.
	b = &scriptBuilder{}
	for i := 0; i < 20000; i++ {
		b.schedule(uniform(r, simtime.Microsecond, 10*simtime.Millisecond))
	}
	for i := 0; i < 60000; i++ {
		b.step()
		b.schedule(uniform(r, simtime.Microsecond, 10*simtime.Millisecond))
	}
	shapes = append(shapes, shape{"farm-stream", b.ops, Counters{
		BottomPops: 79475, BottomLen: 624767, DirectPushes: 8, Rungs: 30, Runs: 327}})

	// dag-packet's hops: about 113 pending, 0.5 to 12 µs apart.
	b = &scriptBuilder{}
	for i := 0; i < 113; i++ {
		b.schedule(uniform(r, simtime.Microsecond/2, 12*simtime.Microsecond))
	}
	for i := 0; i < 60000; i++ {
		b.step()
		b.schedule(uniform(r, simtime.Microsecond/2, 12*simtime.Microsecond))
	}
	shapes = append(shapes, shape{"packet", b.ops, Counters{
		BottomPops: 37190, BottomLen: 81872, Rungs: 135, Runs: 15937,
		LanePushes: 28, LaneClaims: 6}})

	// Cancel churn: every round arms two events and cancels the newer,
	// and one round in five also cancels an older one, under live rungs.
	b = &scriptBuilder{}
	for i := 0; i < 2000; i++ {
		b.schedule(uniform(r, simtime.Microsecond, 2*simtime.Millisecond))
	}
	for i := 0; i < 30000; i++ {
		b.schedule(uniform(r, simtime.Microsecond, 2*simtime.Millisecond))
		b.schedule(uniform(r, simtime.Microsecond, 2*simtime.Millisecond))
		b.cancel(0)
		if i%5 == 0 {
			b.cancel(1 + r.Intn(50))
		}
		b.step()
	}
	shapes = append(shapes, shape{"cancel-churn", b.ops, Counters{
		BottomPops: 19679, BottomLen: 64901,
		DirectPushes: 4899, Rungs: 40, Runs: 9085, Rebuckets: 35,
		LanePushes: 1, LaneClaims: 1}})

	// The end of the time axis: a spill re-bucket spanning 1 s to
	// Forever-1 adapts a width so large that the top rung's last bucket
	// reaches simtime.Forever. That bucket holds 100 shuffled events
	// 10 ns apart, so its hand-down spawns a rung ending at Forever; the
	// steps that follow schedule short delays under it.
	b = &scriptBuilder{}
	for i := 1; i <= 10; i++ {
		b.schedule(simtime.Time(i) * simtime.Second)
	}
	for _, k := range r.Perm(100) {
		b.schedule(simtime.Forever - 2000 - simtime.Time(k)*10)
	}
	b.schedule(simtime.Forever - 1)
	for i := 0; i < 20; i++ {
		b.step()
	}
	for i := 0; i < 200; i++ {
		b.schedule(uniform(r, 0, 1000))
		b.step()
	}
	shapes = append(shapes, shape{"near-forever", b.ops, Counters{
		BottomPops: 277, BottomLen: 956, DirectPushes: 2, Rungs: 1,
		Runs: 15, Rebuckets: 1, LanePushes: 1, LaneClaims: 1}})

	// dag-packet through the delay lanes: about 113 pending, every step
	// schedules one of its four recurring delays in its proportions
	// (0.5 µs 35%, 1.2 µs 34%, 1 µs 28%, 50 µs 3%), and one schedule in
	// twenty adds a random background delay. Cancels of recent events
	// land on lane heads among others.
	b = &scriptBuilder{}
	packetDelay := func() simtime.Time {
		switch k := r.Intn(100); {
		case k < 35:
			return simtime.Microsecond / 2
		case k < 69:
			return 1200 * simtime.Nanosecond
		case k < 97:
			return simtime.Microsecond
		default:
			return 50 * simtime.Microsecond
		}
	}
	for i := 0; i < 113; i++ {
		b.schedule(packetDelay())
	}
	for i := 0; i < 60000; i++ {
		b.step()
		b.schedule(packetDelay())
		if i%20 == 0 {
			b.schedule(uniform(r, simtime.Microsecond/2, 100*simtime.Microsecond))
		}
		if i%7 == 0 {
			b.cancel(r.Intn(8))
		}
	}
	shapes = append(shapes, shape{"lanes", b.ops, Counters{
		BottomPops: 2582, BottomLen: 11795,
		DirectPushes: 2869, Runs: 7, LanePushes: 60093,
		LaneClaims: 4}})

	// Lane events before a handed-down run. Bucket [0, 1 ms) holds ten
	// events at 10-19 µs; bucket [1, 2 ms) holds 200 in order from
	// 1.5 ms, a run once handed down. Two schedules 1 µs out claim a
	// lane, and every step adds one more to it: once the first bucket
	// drains, the lane heads lie below lim (1 ms) with the heap and the
	// run empty. Then every step also adds a background event 1 to
	// 500 µs out. A ladder that handed the run down before those lane
	// heads would raise lim to 2 ms, and the live run would refuse every
	// split of the heap that the background fills.
	b = &scriptBuilder{}
	for i := 0; i < 10; i++ {
		b.schedule(10*simtime.Microsecond + simtime.Time(i)*simtime.Microsecond)
	}
	for i := 0; i < 200; i++ {
		b.schedule(1500*simtime.Microsecond + simtime.Time(i)*simtime.Microsecond)
	}
	b.schedule(simtime.Microsecond)
	b.schedule(simtime.Microsecond)
	for i := 0; i < 3100; i++ {
		b.step()
		b.schedule(simtime.Microsecond)
		if i >= 100 {
			b.schedule(uniform(r, simtime.Microsecond, 500*simtime.Microsecond))
		}
	}
	shapes = append(shapes, shape{"lane-before-run", b.ops, Counters{
		BottomPops: 3002, BottomLen: 34975, DirectPushes: 43, Rungs: 2,
		Splits: 1, Runs: 33, LanePushes: 3101, LaneClaims: 1}})

	// One instant in three places: the heap, the run lane and the
	// delay-0 lane. Each round, from the clock's reading t0, schedules
	// a helper 50 µs out, P at t0+2ms-10µs and R1 at T = t0+2ms; the
	// helper fires, and R2 is scheduled at T too, with a delay of its
	// own, so no delay repeats and no lane is claimed. P, R1 and R2 share a
	// top-rung bucket, in order, and are handed down as a run. P fires,
	// a 10 µs delay puts an event at T in the heap, R1 fires, and three
	// zero-delay schedules follow: the first round's first goes to the
	// heap and the second claims a lane for delay 0, and in every later
	// round all three ride that lane. The cancel of the first of them
	// lands on the delay-0 lane's head from the second round on, and a
	// random background event comes and goes between rounds.
	b = &scriptBuilder{}
	for i := 0; i < 200; i++ {
		b.schedule(50 * simtime.Microsecond)
		b.schedule(2*simtime.Millisecond - 10*simtime.Microsecond)
		b.schedule(2 * simtime.Millisecond)
		b.step()
		b.schedule(2*simtime.Millisecond - 50*simtime.Microsecond)
		b.step()
		b.schedule(10 * simtime.Microsecond)
		b.step()
		b.schedule(0)
		b.schedule(0)
		b.schedule(0)
		b.cancel(2)
		b.schedule(uniform(r, simtime.Microsecond, 5*simtime.Millisecond))
		for j := 0; j < 8; j++ {
			b.step()
		}
	}
	shapes = append(shapes, shape{"same-instant", b.ops, Counters{
		BottomPops: 408, BottomLen: 429, DirectPushes: 409,
		Runs: 392, Rebuckets: 3, LanePushes: 599, LaneClaims: 1}})
	return shapes
}

// TestRungsMatchReference: on every shape the ladder dispatches the
// sequence the reference heap does and ends on the shape's tier
// counters, and between them the shapes spawn a rung, split a heap, form
// a run, spawn a rung from a hand-down that reaches simtime.Forever,
// claim lanes, cancel a lane head and the delay-0 lane's head, and hold
// one instant in the heap, the run lane and the delay-0 lane at once.
func TestRungsMatchReference(t *testing.T) {
	var spawnedAtForever, canceledLaneHead bool
	var threeTiers, canceledZeroHead bool
	var total Counters
	for _, sh := range rungShapes() {
		var eng *Engine
		watch := func(e *Engine, op scriptOp, target Handle) {
			eng = e
			if e.collapsed() {
				spawnedAtForever = true
			}
			if i := e.headOf(target); i >= 0 {
				canceledLaneHead = true
				if e.laneDelay[i] == 0 {
					canceledZeroHead = true
				}
			}
			if e.nowInThreeTiers() {
				threeTiers = true
			}
		}
		got := runLadderScript(sh.ops, watch)
		want := runRefScript(sh.ops)
		if len(got) != len(want) {
			t.Fatalf("%s: ladder fired %d events, heap fired %d", sh.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: dispatch %d diverged: ladder %+v, heap %+v", sh.name, i, got[i], want[i])
			}
		}
		c := eng.Count
		total.Rungs += c.Rungs
		total.Splits += c.Splits
		total.Runs += c.Runs
		total.LanePushes += c.LanePushes
		total.LaneClaims += c.LaneClaims
		if c != sh.want {
			t.Errorf("%s: counters %+v, want %+v", sh.name, c, sh.want)
		}
	}
	if total.Rungs == 0 || total.Splits == 0 || total.Runs == 0 || total.LanePushes == 0 || total.LaneClaims == 0 {
		t.Errorf("paths not taken: %d rungs, %d splits, %d runs, %d lane pushes, %d lane claims",
			total.Rungs, total.Splits, total.Runs, total.LanePushes, total.LaneClaims)
	}
	if !spawnedAtForever {
		t.Error("no hand-down reaching simtime.Forever spawned a rung")
	}
	if !canceledLaneHead {
		t.Error("no cancel landed on a lane head")
	}
	if !threeTiers {
		t.Error("no instant sat in the heap, the run lane and the delay-0 lane at once")
	}
	if !canceledZeroHead {
		t.Error("no cancel landed on the delay-0 lane's head")
	}
}

// TestBottomStaysSmall is ROADMAP item 1's bar: on every shape the heap
// holds at most 256 events on average at a pop, and more than splitAt+1
// only while a split is refused. The lane-before-run shape holds the
// ladder to never advancing past an earlier lane head.
func TestBottomStaysSmall(t *testing.T) {
	for _, sh := range rungShapes() {
		var eng *Engine
		maxLen, refusedMax := 0, 0
		watch := func(e *Engine, op scriptOp, _ Handle) {
			eng = e
			if op.kind != 2 {
				return
			}
			e.nextLive() // what Step does before it pops
			n := e.heapLen()
			switch {
			case n <= splitAt+1:
				maxLen = max(maxLen, n)
			case e.splitRefused():
				refusedMax = max(refusedMax, n)
			default:
				t.Fatalf("%s: heap of %d at a pop with a split allowed", sh.name, n)
			}
		}
		runLadderScript(sh.ops, watch)
		c := eng.Count
		mean := 0.0
		if c.BottomPops > 0 {
			mean = float64(c.BottomLen) / float64(c.BottomPops)
		}
		t.Logf("%s: mean heap at pop %.1f over %d pops, max %d (%d while a split was refused)",
			sh.name, mean, c.BottomPops, maxLen, refusedMax)
		if mean > numBuckets {
			t.Errorf("%s: mean heap at pop %.1f > %d", sh.name, mean, numBuckets)
		}
	}
}

// TestLaneChainPastTopRung: two interleaved chains through one lane,
// with nothing in the ladder, move lim past each lane head without
// handing anything down, and past the top rung's end lay out a new top
// rung; the chains and the events scheduled among their links still
// dispatch as the reference heap does.
func TestLaneChainPastTopRung(t *testing.T) {
	b := &scriptBuilder{}
	b.schedule(simtime.Millisecond)
	b.schedule(simtime.Millisecond)
	for i := 0; i < 1200; i++ {
		b.step()
		b.schedule(simtime.Millisecond)
		if i%300 == 0 {
			b.schedule(simtime.Time(i) * simtime.Microsecond)
		}
	}
	var eng *Engine
	got := runLadderScript(b.ops, func(e *Engine, _ scriptOp, _ Handle) { eng = e })
	want := runRefScript(b.ops)
	if len(got) != len(want) {
		t.Fatalf("ladder fired %d events, heap fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d diverged: ladder %+v, heap %+v", i, got[i], want[i])
		}
	}
	if c := eng.Count; c.LanePushes < 1200 || c.Rebuckets != 0 {
		t.Errorf("counters %+v: want the chain in a lane and no re-bucket", c)
	}
	if end := eng.rungs[0].start; end < 256*simtime.Millisecond {
		t.Errorf("top rung still starts at %v: no new one was laid out past the first", end)
	}
}

// TestLaneHashCollision: 2 µs and 44 µs share laneHash 15. Both claim
// lanes, laneTab marks their slot shared, and every push in either
// delay lands in its own lane and counts once in LanePushes, through
// lanes that drain and refill; 86 µs, with the same hash and no lane,
// finds none. The committed FuzzEngineScript seed sevenLanesSharedHash
// claims all seven delay lanes, these two among them, so the fuzzer
// starts from the shared slot and the tree's rebuilds.
func TestLaneHashCollision(t *testing.T) {
	const a, b, c = 2 * simtime.Microsecond, 44 * simtime.Microsecond, 86 * simtime.Microsecond
	if laneHash(a) != laneHash(b) || laneHash(a) != laneHash(c) {
		t.Fatalf("laneHash %d, %d, %d: the delays must collide", laneHash(a), laneHash(b), laneHash(c))
	}
	e := New()
	noop := func() {}
	for _, d := range []simtime.Time{a, a, b, b} {
		e.After(d, noop)
	}
	la, lb := e.laneFor(a), e.laneFor(b)
	if la < 0 || lb < 0 || la == lb || e.Count.LaneClaims != 2 {
		t.Fatalf("lanes %d and %d after %d claims, want two lanes of their own", la, lb, e.Count.LaneClaims)
	}
	if e.laneTab[laneHash(a)]&laneShared == 0 {
		t.Fatalf("laneTab[%d] = %#x: the slot is not marked shared", laneHash(a), e.laneTab[laneHash(a)])
	}
	if i := e.laneFor(c); i >= 0 {
		t.Fatalf("86 µs found lane %d, which holds %v", i, e.laneDelay[i])
	}
	// An event a second out keeps every push from being a lone event,
	// which skips the lanes, while the lanes drain.
	e.After(simtime.Second, noop)
	pushes := e.Count.LanePushes
	for i := 0; i < 400; i++ {
		d, want := a, la
		if i%3 != 0 {
			d, want = b, lb
		}
		h := e.After(d, noop)
		if tier := e.tierOf(h); tier != inLaneHead && tier != inLane || int(posLane-h.ev.pos) != want {
			t.Fatalf("push %d of %v: tier %d, pos %d, want lane %d", i, d, tier, h.ev.pos, want)
		}
		if i%16 == 15 {
			for e.live > 1 {
				e.Step()
			}
		}
		if err := checkLanes(e); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if got := e.Count.LanePushes - pushes; got != 400 || e.Count.LaneClaims != 2 {
		t.Fatalf("%d lane pushes and %d claims over 400 schedules, want 400 and 2", got, e.Count.LaneClaims)
	}

	raw, err := os.ReadFile("testdata/fuzz/FuzzEngineScript/sevenLanesSharedHash")
	if err != nil {
		t.Fatal(err)
	}
	lit := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(strings.SplitN(string(raw), "\n", 2)[1]), "[]byte("), ")")
	data, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatal(err)
	}
	sawAll := false
	runLadderFuzzScript(decodeScript([]byte(data)), func(e *Engine) {
		claimed := 0
		for _, d := range e.laneDelay {
			if d >= 0 {
				claimed++
			}
		}
		sawAll = sawAll || claimed == numLanes-1 && e.laneTab[laneHash(a)]&laneShared != 0
	})
	if !sawAll {
		t.Error("the seed sevenLanesSharedHash never held seven claimed lanes with a shared laneTab slot")
	}
}

// TestClaimRewritesLaneTab: a claim rewrites laneTab whole. Seven
// delays take the seven delay lanes, 2 µs and 44 µs sharing a slot;
// every lane drains, 2 µs's first, and once it has turned cold 50 µs
// claims it. The shared slot then names 44 µs's lane alone, 2 µs finds
// no lane, and 50 µs and 44 µs pushes land in their own lanes.
func TestClaimRewritesLaneTab(t *testing.T) {
	const a, b, c = 2 * simtime.Microsecond, 44 * simtime.Microsecond, 50 * simtime.Microsecond
	delays := []simtime.Time{a, b, 8 * simtime.Microsecond, 14 * simtime.Microsecond,
		20 * simtime.Microsecond, 26 * simtime.Microsecond, 32 * simtime.Microsecond}
	e := New()
	noop := func() {}
	e.After(simtime.Second, noop) // no schedule below is a lone event
	for _, d := range delays {
		e.After(d, noop)
		e.After(d, noop)
	}
	la, lb := e.laneFor(a), e.laneFor(b)
	if e.Count.LaneClaims != numLanes-1 || la < 0 || lb < 0 {
		t.Fatalf("%d claims, lanes %d and %d: want every delay lane claimed", e.Count.LaneClaims, la, lb)
	}
	for e.live > 1 {
		e.Step()
	}
	for e.laneFor(c) < 0 {
		if e.seq > 2*laneCold {
			t.Fatal("50 µs never claimed a lane")
		}
		e.After(c, noop)
	}
	if got := e.laneFor(c); got != la || e.laneFor(a) >= 0 || e.laneFor(b) != lb {
		t.Fatalf("50 µs took lane %d, 2 µs finds %d, 44 µs %d: want %d, -1 and %d",
			got, e.laneFor(a), e.laneFor(b), la, lb)
	}
	if err := checkLanes(e); err != nil {
		t.Fatal(err)
	}
	for _, d := range []simtime.Time{b, c} {
		if h := e.After(d, noop); int(posLane-h.ev.pos) != e.laneFor(d) {
			t.Fatalf("a push of %v went to pos %d, not lane %d", d, h.ev.pos, e.laneFor(d))
		}
	}
}
