package engine

import (
	"testing"

	"holdcsim/internal/simtime"
)

// logger is a model object that owns one record and appends its id to a
// shared log as it fires.
type logger struct {
	rec Event
	id  int
	log *[]int
}

func (l *logger) Fire() { *l.log = append(*l.log, l.id) }

// Same-instant events fire in scheduling order whichever kind they are:
// owned records and pooled funcs alternate at one instant, scheduled
// from outside the loop and again from inside a dispatch, through the
// delay-0 lane.
func TestHandlerTiesFireInSeqOrder(t *testing.T) {
	e := New()
	var log []int
	schedule := func(id int, at simtime.Time) {
		if id%2 == 0 {
			l := &logger{id: id, log: &log}
			e.ScheduleIn(&l.rec, at, l)
		} else {
			e.Schedule(at, func() { log = append(log, id) })
		}
	}
	for id := 0; id < 10; id++ {
		schedule(id, 100)
	}
	e.Schedule(200, func() {
		for id := 10; id < 20; id++ {
			schedule(id, e.Now())
		}
	})
	e.Run()
	if len(log) != 20 {
		t.Fatalf("%d events fired, want 20: %v", len(log), log)
	}
	for i, id := range log {
		if id != i {
			t.Fatalf("same-instant events out of scheduling order: %v", log)
		}
	}
}

// Cancel takes an owned record out of a lane, a bucket, the spill and
// the heap, and it never fires; so does CancelIn.
func TestCancelHandlerFromEveryTier(t *testing.T) {
	var log []int
	for _, byRecord := range []bool{false, true} {
		for _, tc := range []struct {
			tier  int
			place func(e *Engine, l *logger) Handle
		}{
			{inBucket, func(e *Engine, l *logger) Handle {
				return e.ScheduleIn(&l.rec, 5*simtime.Millisecond, l)
			}},
			{inSpill, func(e *Engine, l *logger) Handle {
				e.Schedule(5*simtime.Millisecond, func() {})
				return e.ScheduleIn(&l.rec, 3600*simtime.Second, l)
			}},
			{inLaneHead, func(e *Engine, l *logger) Handle {
				// The second schedule 8 µs out claims a lane.
				e.Schedule(5*simtime.Millisecond, func() {})
				e.Schedule(8*simtime.Microsecond, func() {})
				return e.AfterIn(&l.rec, 8*simtime.Microsecond, l)
			}},
			{inHeap, func(e *Engine, l *logger) Handle {
				// Out of order in one bucket, the two are heapified as the
				// first is handed down; then an event below lim is pushed
				// into the heap.
				e.Schedule(300, func() {})
				e.Schedule(100, func() {})
				e.Step()
				return e.AfterIn(&l.rec, 50, l)
			}},
		} {
			e := New()
			l := &logger{id: -1, log: &log}
			h := tc.place(e, l)
			if got := e.tierOf(h); got != tc.tier || !l.rec.Pending() {
				t.Fatalf("tier %d: the record is queued in tier %d, pending %v", tc.tier, got, l.rec.Pending())
			}
			if byRecord {
				e.CancelIn(&l.rec)
			} else {
				e.Cancel(h)
			}
			if h.Pending() || l.rec.Pending() {
				t.Errorf("tier %d: canceled record still pending", tc.tier)
			}
			if q := e.queued(); q != e.live {
				t.Errorf("tier %d: %d events queued, %d live", tc.tier, q, e.live)
			}
			e.Run()
		}
	}
	if len(log) != 0 {
		t.Errorf("canceled records fired: %v", log)
	}
}

// A Handle to an owned record goes inert once the arming it names fires
// or is canceled: it neither cancels nor observes the record's next
// arming. The pool never hands an owned record out, and a record armed
// while it is still queued moves, leaving one event.
func TestStaleHandlerHandle(t *testing.T) {
	e := New()
	var log []int
	l := &logger{id: 1, log: &log}
	h1 := e.ScheduleIn(&l.rec, 10, l)
	e.Run()
	if hf := e.Schedule(15, func() { log = append(log, 0) }); hf.ev == h1.ev {
		t.Fatal("the pool handed out a fired owned record")
	}
	l.id = 2
	h2 := e.ScheduleIn(&l.rec, 20, l)
	if h2.ev != h1.ev {
		t.Fatal("the record was not re-armed in place")
	}
	e.Cancel(h1)
	if h1.Pending() || !h2.Pending() {
		t.Fatal("a stale Handle to a fired arming reached the record's new arming")
	}
	e.Cancel(h2)
	if hf := e.Schedule(25, func() { log = append(log, 0) }); hf.ev == h2.ev {
		t.Fatal("the pool handed out a canceled owned record")
	}
	l.id = 4
	h4 := e.ScheduleIn(&l.rec, 40, l)
	e.Cancel(h2)
	if !h4.Pending() {
		t.Fatal("a stale Handle to a canceled arming reached the record's new arming")
	}
	live := e.live
	l.id = 5
	h5 := e.ScheduleIn(&l.rec, 30, l)
	if h4.Pending() || !h5.Pending() || e.live != live {
		t.Fatalf("arming a queued record: old pending %v, new pending %v, live %d → %d",
			h4.Pending(), h5.Pending(), live, e.live)
	}
	e.Run()
	if want := []int{1, 0, 0, 5}; len(log) != len(want) || log[0] != 1 || log[1] != 0 || log[2] != 0 || log[3] != 5 {
		t.Errorf("fired %v, want %v", log, want)
	}
}

// twoRecords owns two records on one object, as a switch does its wake
// and its sleep countdown: the second's handler is the same object under
// another named type, so each Fire knows its record without asking the
// engine.
type twoRecords struct {
	e          *Engine
	a, b       Event
	ha, hb     Handle
	log        []string
	pendingIn  []bool // each record's Pending and its Handle's, inside Fire
	rearmFromA bool
}

type twoRecordsB twoRecords

func (p *twoRecords) Fire() {
	p.log = append(p.log, "a")
	p.pendingIn = append(p.pendingIn, p.a.Pending(), p.ha.Pending())
	if p.rearmFromA {
		p.rearmFromA = false
		p.ha = p.e.AfterIn(&p.a, 5, p)
	}
}

func (q *twoRecordsB) Fire() {
	p := (*twoRecords)(q)
	p.log = append(p.log, "b")
	p.pendingIn = append(p.pendingIn, p.b.Pending(), p.hb.Pending())
}

// Inside a handler's Fire, the record that fired and the Handle that
// armed it are no longer Pending, and the handler can re-arm the record
// at once; an object with two records tells them apart by handler type.
func TestFiringInsideHandler(t *testing.T) {
	e := New()
	p := &twoRecords{e: e, rearmFromA: true}
	p.ha = e.ScheduleIn(&p.a, 10, p)
	p.hb = e.ScheduleIn(&p.b, 10, (*twoRecordsB)(p))
	e.Run()
	if got := len(p.log); got != 3 || p.log[0] != "a" || p.log[1] != "b" || p.log[2] != "a" {
		t.Fatalf("fired %v, want [a b a]", p.log)
	}
	for i, pending := range p.pendingIn {
		if pending {
			t.Errorf("inside Fire %d, check %d read Pending", i/2, i%2)
		}
	}
	if e.Now() != 15 {
		t.Errorf("the re-armed record fired at %v, want 15", e.Now())
	}
}

// hopper reschedules itself from its own Fire, as a packet does: one
// flag says which of two alternating steps the pending event runs.
type hopper struct {
	rec     Event
	e       *Engine
	hops    int
	arrived bool
	log     []simtime.Time
}

func (p *hopper) Fire() {
	p.log = append(p.log, p.e.Now())
	if p.hops--; p.hops == 0 {
		return
	}
	p.arrived = !p.arrived
	d := 500 * simtime.Nanosecond // propagation
	if p.arrived {
		d = simtime.Microsecond // switch latency
	}
	p.e.AfterIn(&p.rec, d, p)
}

// A handler re-arms its own record from its own Fire, among other
// traffic on the same delays.
func TestHandlerReschedulesItself(t *testing.T) {
	e := New()
	ps := []*hopper{{e: e, hops: 50}, {e: e, hops: 50}}
	for i, p := range ps {
		e.ScheduleIn(&p.rec, simtime.Time(i), p)
	}
	e.Run()
	for i, p := range ps {
		if len(p.log) != 50 {
			t.Fatalf("hopper %d fired %d times, want 50", i, len(p.log))
		}
		at := simtime.Time(i)
		for k, got := range p.log {
			if got != at {
				t.Fatalf("hopper %d hop %d at %v, want %v", i, k, got, at)
			}
			if k%2 == 0 {
				at += simtime.Microsecond
			} else {
				at += 500 * simtime.Nanosecond
			}
		}
	}
	if e.live != 0 || e.queued() != 0 {
		t.Errorf("%d live, %d queued after the run", e.live, e.queued())
	}
}
