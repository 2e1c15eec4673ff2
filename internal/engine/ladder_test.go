package engine

import (
	"container/heap"
	"math/rand"
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
				op.delay = simtime.Time(r.Int63n(int64(simtime.Hour)))
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
// dispatch sequence.
func runLadderScript(ops []scriptOp) []dispatchRecord {
	e := New()
	var fired []dispatchRecord
	handles := map[int]Handle{}
	nextID := 0
	for _, op := range ops {
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
		got := runLadderScript(ops)
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
	a := runLadderScript(ops)
	b := runLadderScript(ops)
	if len(a) != len(b) {
		t.Fatalf("replay fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPoolHandleSafety: Handles to fired, canceled, and swept events must
// be inert — unable to cancel or observe the pool slot's new occupant.
func TestPoolHandleSafety(t *testing.T) {
	e := New()
	fired := 0
	h1 := e.Schedule(10, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("event fired %d times", fired)
	}
	if h1.Pending() || h1.Canceled() {
		t.Error("handle to fired event reports pending/canceled")
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
	// Canceled handles stay observably canceled until swept, then go
	// inert; double-cancel is always safe.
	h3 := e.Schedule(30, func() { fired++ })
	e.Cancel(h3)
	if !h3.Canceled() || h3.Pending() {
		t.Error("canceled handle state wrong before sweep")
	}
	e.Cancel(h3)
	e.Run()
	if fired != 2 {
		t.Error("canceled event fired")
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
// bucket, spill, forever), cancels, and steps, checking the global
// invariants the engine must uphold.
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
				switch r.Intn(5) {
				case 0:
					d = 0
				case 1:
					d = simtime.Time(r.Int63n(int64(simtime.Microsecond)))
				case 2:
					d = simtime.Time(r.Int63n(int64(simtime.Second)))
				case 3:
					d = simtime.Time(r.Int63n(int64(24 * simtime.Hour)))
				default:
					d = simtime.Forever - e.Now() // forever tier
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
				// Don't fire forever-tier sentinels mid-script: the
				// clock would jump to Forever and further scheduling
				// would (correctly) panic.
				if at, ok := e.NextEventTime(); !ok || at == simtime.Forever {
					continue
				}
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
		// Drain everything except forever-tier sentinels.
		for {
			at, ok := e.NextEventTime()
			if !ok || at == simtime.Forever {
				break
			}
			e.Step()
		}
		for i, tr := range all {
			if tr.at == simtime.Forever {
				continue
			}
			if tr.canceled && *tr.fired {
				t.Fatalf("seed %d: event %d fired after cancel", seed, i)
			}
			if !tr.canceled && !*tr.fired {
				t.Fatalf("seed %d: live event %d (at %v) never fired", seed, i, tr.at)
			}
		}
		wantForever := 0
		for _, tr := range all {
			if tr.at == simtime.Forever && !tr.canceled {
				wantForever++
			}
		}
		if e.live != wantForever {
			t.Fatalf("seed %d: Len = %d, want %d forever sentinels", seed, e.live, wantForever)
		}
	}
}

// TestForeverTierOrdering: sentinels scheduled at simtime.Forever fire
// after every finite event, FIFO among themselves, and stay cancelable.
func TestForeverTierOrdering(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(simtime.Forever, func() { got = append(got, 100) })
	e.Schedule(5, func() { got = append(got, 1) })
	h := e.Schedule(simtime.Forever, func() { got = append(got, 101) })
	e.Schedule(simtime.Forever, func() { got = append(got, 102) })
	e.Schedule(10*simtime.Hour, func() { got = append(got, 2) })
	e.Cancel(h)
	e.Run()
	want := []int{1, 2, 100, 102}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestNearForeverTimestampsNoOverflow reproduces the window-advance
// overflow: finite events spanning up to just below simtime.Forever force
// a huge adapted bucket width, and advancing the window across it must
// collapse to heap mode instead of wrapping base negative (which would
// corrupt bucket routing and could panic on a negative slot index).
func TestNearForeverTimestampsNoOverflow(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(simtime.Second, func() { got = append(got, 1) })
	e.Schedule(simtime.Forever-5, func() { got = append(got, 3) })
	e.Schedule(2*simtime.Second, func() { got = append(got, 2) })
	// Fire the first event, then keep scheduling while the engine works
	// through the enormous span: placements after the window collapses
	// must still dispatch in global (at, seq) order.
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
