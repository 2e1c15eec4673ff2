package engine

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"holdcsim/internal/simtime"
)

// This file extends the ladder-vs-reference-heap differential testing
// of ladder_test.go with byte-decoded op scripts that interleave
// Timer.Reset / Timer.Stop with Cancel and re-arm — the exact churn the
// delay-timer and LPI policies generate — and pooled func events with
// owned records (Event) armed, moved, canceled and re-armed from their
// own Fire, and exposes the decoder to a native fuzz target. The law is
// unchanged: for any script, the ladder engine must dispatch the
// bit-identical (id, time) sequence the reference binary heap does.

// numFuzzTimers is the fixed pool of restartable timers a script drives.
const numFuzzTimers = 8

// numFuzzOwners is the fixed set of owned records a script drives.
const numFuzzOwners = 8

// timerIDBase offsets timer dispatch ids away from plain event ids.
const timerIDBase = 1 << 20

// fuzzOp is one decoded operation.
type fuzzOp struct {
	kind  byte // 0 schedule, 1 cancel, 2 step, 3 timer-reset, 4 timer-stop
	delay simtime.Time
	// arg is the cancel target or the timer index. A step with arg%8 ==
	// 7 is RunUntil(now+delay). A schedule with an odd arg arms owner
	// arg>>1&7's record instead of a pooled event, moving the record if
	// it is queued, and with bit 4 set the owner re-arms it once from
	// its Fire, delay later. A timer-stop with bit 3 set cancels owner
	// arg&7's record instead.
	arg int
}

// runsUntil reports whether op is a step that runs until delay past now.
func (op fuzzOp) runsUntil() bool { return op.kind == 2 && op.arg%8 == 7 }

// ownerOf reports the owner a schedule or a timer-stop names, or -1.
func (op fuzzOp) ownerOf() int {
	switch {
	case op.kind == 0 && op.arg&1 == 1:
		return op.arg >> 1 & (numFuzzOwners - 1)
	case op.kind == 4 && op.arg&8 != 0:
		return op.arg & (numFuzzOwners - 1)
	}
	return -1
}

// again is the delay after which an owner armed by op re-arms from its
// Fire, or -1.
func (op fuzzOp) again() simtime.Time {
	if op.arg&16 != 0 {
		return op.delay
	}
	return -1
}

// decodeScript turns raw fuzz bytes into an op script, three bytes per
// op. The delay byte selects among horizons that land events in every
// ladder tier (bottom, near buckets, spill) plus zero-delay ties; a
// delay byte repeated schedules a recurring delay, which takes a lane.
func decodeScript(data []byte) []fuzzOp {
	ops := make([]fuzzOp, 0, len(data)/3)
	for i := 0; i+2 < len(data); i += 3 {
		op := fuzzOp{kind: data[i] % 5, arg: int(data[i+2])}
		scale := data[i+1]
		var d simtime.Time
		switch scale % 6 {
		case 0:
			d = 0
		case 1:
			d = simtime.Time(scale) * simtime.Nanosecond
		case 2:
			d = simtime.Time(scale) * simtime.Microsecond
		case 3:
			d = simtime.Time(scale) * simtime.Millisecond
		case 4:
			d = simtime.Time(scale) * simtime.Second
		case 5:
			d = simtime.Time(scale) * 3600 * simtime.Second
		}
		op.delay = d
		ops = append(ops, op)
	}
	return ops
}

// fuzzScript is a script's state on the real engine: the dispatch log,
// the Handle of every id scheduled, and the next id.
type fuzzScript struct {
	e       *Engine
	fired   []dispatchRecord
	handles map[int]Handle
	nextID  int
}

// fuzzOwner is a script's model object: it owns one record, logs the id
// of the arming that fires, and re-arms from its Fire when again is set.
type fuzzOwner struct {
	rec   Event
	s     *fuzzScript
	id    int
	again simtime.Time
}

// arm queues the owner's record d from now under a new id.
func (o *fuzzOwner) arm(d simtime.Time) {
	o.id = o.s.nextID
	o.s.nextID++
	o.s.handles[o.id] = o.s.e.AfterIn(&o.rec, d, o)
}

func (o *fuzzOwner) Fire() {
	o.s.fired = append(o.s.fired, dispatchRecord{id: o.id, at: o.s.e.Now()})
	if d := o.again; d >= 0 {
		o.again = -1
		o.arm(d)
	}
}

// runLadderFuzzScript replays ops on the real engine with a pool of
// engine.Timers and of owned records, returning the dispatch sequence.
// A non-nil watch sees the engine after every op.
func runLadderFuzzScript(ops []fuzzOp, watch func(*Engine)) []dispatchRecord {
	e := New()
	s := &fuzzScript{e: e, handles: map[int]Handle{}}
	timers := make([]*Timer, numFuzzTimers)
	for i := range timers {
		id := timerIDBase + i
		timers[i] = NewTimer(e, func() {
			s.fired = append(s.fired, dispatchRecord{id: id, at: e.Now()})
		})
	}
	owners := make([]fuzzOwner, numFuzzOwners)
	for i := range owners {
		owners[i].s = s
	}
	for _, op := range ops {
		switch o := op.ownerOf(); {
		case o >= 0 && op.kind == 0:
			owners[o].again = op.again()
			owners[o].arm(op.delay)
		case o >= 0:
			e.CancelIn(&owners[o].rec)
		case op.kind == 0:
			id := s.nextID
			s.nextID++
			s.handles[id] = e.Schedule(e.Now()+op.delay, func() {
				s.fired = append(s.fired, dispatchRecord{id: id, at: e.Now()})
			})
		case op.kind == 1:
			if s.nextID > 0 {
				e.Cancel(s.handles[op.arg%s.nextID])
			}
		case op.kind == 2:
			if op.runsUntil() {
				e.RunUntil(e.Now() + op.delay)
			} else {
				e.Step()
			}
		case op.kind == 3:
			timers[op.arg%numFuzzTimers].Reset(op.delay)
		case op.kind == 4:
			timers[op.arg%numFuzzTimers].Stop()
		}
		if watch != nil {
			watch(e)
		}
	}
	e.Run()
	return s.fired
}

// refTimer mirrors engine.Timer semantics on the reference heap: Reset
// cancels the pending expiry and schedules a fresh event (consuming the
// next sequence number, exactly like Timer.Reset's Cancel + After).
type refTimer struct {
	ev *refEvent
}

// refOwner mirrors a fuzzOwner on the reference heap: the id of its
// latest arming, and the delay of its re-arm from Fire, or -1.
type refOwner struct {
	id    int
	again simtime.Time
}

// runRefFuzzScript replays the same ops on the reference binary heap.
// An owner's record is one event at a time: arming it cancels the
// arming before, if it is still queued, and schedules afresh.
func runRefFuzzScript(ops []fuzzOp) []dispatchRecord {
	r := newRefEngine()
	var fired []dispatchRecord
	timers := make([]refTimer, numFuzzTimers)
	cancelEv := func(ev *refEvent) {
		if ev != nil && !ev.canceled && ev.index >= 0 {
			ev.canceled = true
			heap.Remove(&r.q, ev.index)
		}
	}
	nextID := 0
	owners := make([]refOwner, numFuzzOwners)
	for i := range owners {
		owners[i].id = -1
	}
	ownerOf := map[int]int{}
	arm := func(o int, d simtime.Time) {
		if owners[o].id >= 0 {
			r.cancel(owners[o].id)
		}
		owners[o].id = nextID
		ownerOf[nextID] = o
		r.schedule(r.now+d, nextID)
		nextID++
	}
	drainOne := func() bool {
		id, at, ok := r.step()
		if ok {
			fired = append(fired, dispatchRecord{id: id, at: at})
			if o, owned := ownerOf[id]; owned {
				if d := owners[o].again; d >= 0 {
					owners[o].again = -1
					arm(o, d)
				}
			}
		}
		return ok
	}
	for _, op := range ops {
		if o := op.ownerOf(); o >= 0 {
			if op.kind == 0 {
				owners[o].again = op.again()
				arm(o, op.delay)
			} else if owners[o].id >= 0 {
				r.cancel(owners[o].id)
			}
			continue
		}
		switch op.kind {
		case 0:
			r.schedule(r.now+op.delay, nextID)
			nextID++
		case 1:
			if nextID > 0 {
				r.cancel(op.arg % nextID)
			}
		case 2:
			if !op.runsUntil() {
				drainOne()
				break
			}
			end := r.now + op.delay
			for len(r.q) > 0 && r.q[0].at <= end {
				drainOne()
			}
			r.now = max(r.now, end)
		case 3:
			ti := op.arg % numFuzzTimers
			cancelEv(timers[ti].ev)
			ev := &refEvent{at: r.now + op.delay, seq: r.seq, id: timerIDBase + ti}
			r.seq++
			heap.Push(&r.q, ev)
			timers[ti].ev = ev
		case 4:
			cancelEv(timers[op.arg%numFuzzTimers].ev)
		}
	}
	for drainOne() {
	}
	return fired
}

// checkLanes is the lane tree's oracle. It reports the first of these
// that fails: each lane's key is its head's (at, seq), or (Forever,
// MaxUint64) with its laneBusy bit clear when it is empty; each node of
// the loser tree holds one of the two lanes its children send up, and
// that lane does not beat the other, which goes up in turn; laneWin[0]
// is what node 1 sends up and, when a lane is busy, the busy lane whose
// head has the least (at, seq); and laneTab names, for every hash, the
// one lane delay there, runLane for none, or one of two or more with
// laneShared set.
func checkLanes(e *Engine) error {
	type key struct {
		at  simtime.Time
		seq uint64
	}
	less := func(a, b key) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }
	keyOf := func(i uint8) key { return key{e.laneAt[i], e.laneSeq[i]} }
	best := -1
	for i := range e.lanes {
		h, busy := e.lanes[i].head, e.laneBusy&(1<<i) != 0
		switch {
		case h == nil && (busy || keyOf(uint8(i)) != key{simtime.Forever, math.MaxUint64}):
			return fmt.Errorf("empty lane %d: busy %v, key %+v", i, busy, keyOf(uint8(i)))
		case h == nil:
		case !busy || keyOf(uint8(i)) != key{h.at, h.seq}:
			return fmt.Errorf("lane %d: busy %v, key %+v, head (%d, %d)", i, busy, keyOf(uint8(i)), h.at, h.seq)
		case best < 0 || less(key{h.at, h.seq}, keyOf(uint8(best))):
			best = i
		}
	}
	var up [2 * numLanes]uint8
	for i := range numLanes {
		up[numLanes+i] = uint8(i)
	}
	for k := numLanes - 1; k > 0; k-- {
		a, b, s := up[2*k], up[2*k+1], e.laneWin[k]
		if s != a && s != b {
			return fmt.Errorf("node %d holds lane %d, but its match is lane %d against lane %d", k, s, a, b)
		}
		up[k] = a ^ b ^ s
		if less(keyOf(s), keyOf(up[k])) {
			return fmt.Errorf("node %d holds lane %d %+v, which beats lane %d %+v, the winner of its subtree",
				k, s, keyOf(s), up[k], keyOf(up[k]))
		}
	}
	if w := e.laneWin[0]; w != up[1] || best >= 0 && int(w) != best {
		return fmt.Errorf("the root names lane %d; node 1 sends up lane %d, and the earliest busy lane is %d", w, up[1], best)
	}
	for hash, t := range &e.laneTab {
		var held []int
		for i, d := range &e.laneDelay {
			if d >= 0 && laneHash(d) == uint(hash) {
				held = append(held, i)
			}
		}
		lane, shared := int(t&(numLanes-1)), t&laneShared != 0
		switch {
		case len(held) == 0 && t == runLane,
			len(held) == 1 && lane == held[0] && !shared,
			len(held) > 1 && shared && e.laneDelay[lane] >= 0 && laneHash(e.laneDelay[lane]) == uint(hash):
		default:
			return fmt.Errorf("laneTab[%d] is %#x, but lanes %v hold delays that hash there", hash, t, held)
		}
	}
	return nil
}

// diffScripts replays a script on both implementations and reports the
// first divergence, with checkLanes run after every op.
func diffScripts(t *testing.T, ops []fuzzOp) {
	t.Helper()
	op := 0
	got := runLadderFuzzScript(ops, func(e *Engine) {
		if err := checkLanes(e); err != nil {
			t.Fatalf("after op %d %+v: %v", op, ops[op], err)
		}
		op++
	})
	want := runRefFuzzScript(ops)
	if len(got) != len(want) {
		t.Fatalf("ladder fired %d events, reference heap fired %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch %d diverged: ladder %+v, heap %+v", i, got[i], want[i])
		}
	}
}

// crowdedBucket is a seed script: the lead ops, then 42 schedules from
// 248 µs down to 2 µs ahead (one top-rung bucket, out of order, more
// than splitAt), then a step.
func crowdedBucket(lead ...byte) []byte {
	data := append([]byte(nil), lead...)
	for m := 41; m >= 0; m-- {
		data = append(data, 0, byte(6*m+2), 0)
	}
	return append(data, 2, 0, 0)
}

// manyDelays is a seed script for ten recurring delays, 2 to 56 µs,
// against eight lanes: each is scheduled twice in a row to claim a lane,
// then rounds of one schedule per delay and steps free and refill them,
// and hot lanes refuse the claims of the delays left over.
func manyDelays() []byte {
	var data []byte
	for round := 0; round < 4; round++ {
		for k := 0; k < 10; k++ {
			us := byte(6*k + 2) // k*6+2 µs
			data = append(data, 0, us, 0, 0, us, 0)
		}
		for i := 0; i < 12; i++ {
			data = append(data, 2, 0, 0)
		}
	}
	return data
}

// laneCancels is a seed script that fills one lane with 80 events 8 µs
// out, cancels 70 of them, each from the lane's head, then drains.
func laneCancels() []byte {
	var data []byte
	for i := 0; i < 80; i++ {
		data = append(data, 0, 8, 0)
	}
	for i := 1; i <= 70; i++ {
		data = append(data, 1, 0, byte(i))
	}
	return append(data, 2, 0, 0, 0, 8, 0, 2, 0, 0)
}

// zeroLane is a seed script in which delay 0 claims a lane among two
// recurring delays and empties and refills it round after round: each
// round schedules 2 and 8 µs out twice, then four zero-delay events, a
// cancel of the first of them, and steps past them all.
func zeroLane() []byte {
	var data []byte
	for round := 0; round < 6; round++ {
		data = append(data, 0, 2, 0, 0, 2, 0, 0, 8, 0, 0, 8, 0)
		for k := 0; k < 4; k++ {
			data = append(data, 0, byte(6*k), 0)
		}
		data = append(data, 1, 0, byte(8*round+4))
		for i := 0; i < 9; i++ {
			data = append(data, 2, 0, 0)
		}
	}
	return data
}

// reclaimLane is a seed script that hands a drained lane to a new delay:
// 8 µs and six delays of hours claim all seven delay lanes, two steps
// drain 8 µs's lane, 4,100 schedules into the 5 h lane run it cold
// (laneCold), then 14 µs claims it and 8 µs finds no lane.
func reclaimLane() []byte {
	data := []byte{0, 8, 0, 0, 8, 0}
	for _, h := range []byte{5, 11, 17, 23, 29, 35} { // hours
		data = append(data, 0, h, 0, 0, h, 0)
	}
	data = append(data, 2, 0, 0, 2, 0, 0)
	for i := 0; i < laneCold+4; i++ {
		data = append(data, 0, 5, 0)
	}
	data = append(data, 0, 14, 0, 0, 14, 0, 0, 8, 0)
	return append(data, 2, 0, 0, 2, 0, 0, 2, 0, 0)
}

// ownedRecords is a seed script that works owned records over lanes of
// 8 and 14 µs: each round arms two owners 8 µs out, arms the first again
// while it is queued (it moves to 14 µs), cancels that first arming's
// stale Handle, cancels the second by record and re-arms it, arms the
// first to re-arm itself from its Fire, cancels a stale Handle to an
// earlier round's arming, and steps among pooled events on the same
// delays.
func ownedRecords() []byte {
	var data []byte
	for round := 0; round < 8; round++ {
		first := byte(4 * round) // the id of the round's first arming
		data = append(data,
			0, 8, 1, 0, 8, 3, // arm owners 0 and 1
			0, 14, 1, // arm owner 0 while it is queued
			1, 0, first, // its first arming's stale Handle
			4, 0, 9, 0, 8, 3, // cancel owner 1 by record, re-arm it
			0, 8, 17, // owner 0 re-arms from its Fire, 8 µs on
			0, 8, 0, 0, 14, 0, // pooled events on the lanes' delays
		)
		if round > 0 {
			data = append(data, 1, 0, first-1) // last round's re-arm from Fire
		}
		data = append(data, 2, 0, 0, 2, 0, 0, 2, 8, 7)
	}
	return data
}

// FuzzEngineScript: any byte string decodes to a valid op script; the
// ladder queue and the reference heap must dispatch identically.
func FuzzEngineScript(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 0, 0, 4, 1, 2, 0, 0})          // schedule, schedule, step
	f.Add([]byte{3, 3, 0, 3, 3, 0, 4, 0, 0, 2, 0, 0}) // timer reset, reset, stop, step
	// A churn-heavy corpus entry: interleaved schedules, timer re-arms
	// and cancels across tiers.
	f.Add([]byte{0, 5, 0, 3, 200, 1, 1, 0, 0, 3, 200, 1, 2, 0, 0, 0, 130, 7, 4, 0, 1, 2, 0, 0})
	f.Add(crowdedBucket())                 // a hand-down spawns a rung
	f.Add(crowdedBucket(0, 0, 0, 2, 0, 0)) // direct pushes split the heap
	f.Add(manyDelays())                    // more recurring delays than lanes
	// Three schedules 8 µs out (the second claims a lane), a cancel of
	// the lane head, steps: a lane re-keyed by a cancel.
	f.Add([]byte{0, 8, 0, 0, 8, 0, 0, 8, 0, 1, 0, 1, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	f.Add(laneCancels()) // most of a live lane canceled
	// Lanes of 2 and 8 µs, then RunUntil 2 µs on: it stops between the
	// two lane heads. More lane events, a step, RunUntil 8 µs on.
	f.Add([]byte{0, 2, 0, 0, 2, 0, 0, 8, 0, 0, 8, 0, 2, 2, 7, 0, 2, 0, 2, 0, 0, 2, 8, 7, 2, 0, 0})
	// Delay 0 in a lane: three zero-delay schedules (the second claims
	// a lane), steps that empty it, three more (the first alone in the
	// queue, the rest refill the lane), a cancel of its head, steps.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0,
		0, 6, 0, 0, 12, 0, 0, 18, 0, 1, 0, 4, 2, 0, 0, 2, 0, 0})
	f.Add(zeroLane())     // delay 0 among other lanes, emptied and refilled
	f.Add(reclaimLane())  // a drained lane goes cold and a new delay claims it
	f.Add(ownedRecords()) // owned records armed, moved, canceled, re-armed
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*5000 {
			data = data[:3*5000] // bound script length, not coverage
		}
		diffScripts(t, decodeScript(data))
	})
}

// TestLadderTimerDifferential is the deterministic companion of
// FuzzEngineScript: randomized scripts heavy on Timer.Reset/Stop churn,
// replayed on every run of the suite (no -fuzz flag needed).
// The lane-reclaim and owned-record seed scripts run here too, and the
// reclaim is checked to happen.
func TestLadderTimerDifferential(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*1500)
		r.Read(data)
		diffScripts(t, decodeScript(data))
	}

	reclaim := decodeScript(reclaimLane())
	diffScripts(t, reclaim)
	reclaimed := false
	runLadderFuzzScript(reclaim, func(e *Engine) {
		reclaimed = reclaimed || e.Count.LaneClaims == numLanes && e.laneDelay[1] == 14*simtime.Microsecond
	})
	if !reclaimed {
		t.Error("the reclaim script never handed lane 1 to 14 µs as its eighth claim")
	}

	diffScripts(t, decodeScript(ownedRecords()))
}

// TestCancelLeavesNoEvent: a canceled event leaves its tier at once.
// After every op of randomized schedule/cancel/step/RunUntil scripts,
// Timer churn included, the events linked into the heap, the lanes, the
// rung buckets and the spill are exactly the live ones.
func TestCancelLeavesNoEvent(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*1500)
		r.Read(data)
		ops := decodeScript(data)
		runLadderFuzzScript(ops, func(e *Engine) {
			if q := e.queued(); q != e.live {
				t.Fatalf("seed %d: %d events queued, %d live", seed, q, e.live)
			}
		})
	}
}
