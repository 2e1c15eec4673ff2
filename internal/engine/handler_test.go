package engine

import (
	"testing"

	"holdcsim/internal/simtime"
)

// logger is a Handler that appends its id to a shared log as it fires.
type logger struct {
	id  int
	log *[]int
}

func (l *logger) Fire() { *l.log = append(*l.log, l.id) }

// Same-instant events fire in scheduling order whichever kind they are:
// handlers and funcs alternate at one instant, scheduled from outside
// the loop and again from inside a dispatch, through the delay-0 lane.
func TestHandlerTiesFireInSeqOrder(t *testing.T) {
	e := New()
	var log []int
	schedule := func(id int, at simtime.Time) {
		if id%2 == 0 {
			e.ScheduleHandler(at, &logger{id: id, log: &log})
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

// Cancel takes a handler event out of a lane, a bucket, the spill and
// the heap, and it never fires.
func TestCancelHandlerFromEveryTier(t *testing.T) {
	var log []int
	canceled := &logger{id: -1, log: &log}
	for _, tc := range []struct {
		tier  int
		place func(e *Engine) Handle
	}{
		{inBucket, func(e *Engine) Handle {
			return e.ScheduleHandler(5*simtime.Millisecond, canceled)
		}},
		{inSpill, func(e *Engine) Handle {
			e.Schedule(5*simtime.Millisecond, func() {})
			return e.ScheduleHandler(3600*simtime.Second, canceled)
		}},
		{inLaneHead, func(e *Engine) Handle {
			// The second schedule 8 µs out claims a lane.
			e.Schedule(5*simtime.Millisecond, func() {})
			e.Schedule(8*simtime.Microsecond, func() {})
			return e.AfterHandler(8*simtime.Microsecond, canceled)
		}},
		{inHeap, func(e *Engine) Handle {
			// Out of order in one bucket, the two are heapified as the
			// first is handed down; then an event below lim is pushed
			// into the heap.
			e.Schedule(300, func() {})
			e.Schedule(100, func() {})
			e.Step()
			return e.AfterHandler(50, canceled)
		}},
	} {
		e := New()
		h := tc.place(e)
		if got := e.tierOf(h); got != tc.tier {
			t.Fatalf("tier %d: the handler event is queued in tier %d", tc.tier, got)
		}
		e.Cancel(h)
		if h.Pending() {
			t.Errorf("tier %d: canceled handler event still pending", tc.tier)
		}
		if q := e.queued(); q != e.live {
			t.Errorf("tier %d: %d events queued, %d live", tc.tier, q, e.live)
		}
		e.Run()
	}
	if len(log) != 0 {
		t.Errorf("canceled handler events fired: %v", log)
	}
}

// A Handle to a handler event goes inert once the event fires or is
// canceled: it neither cancels nor observes the event that reuses its
// slot, of either kind.
func TestStaleHandlerHandle(t *testing.T) {
	e := New()
	var log []int
	h1 := e.ScheduleHandler(10, &logger{id: 1, log: &log})
	e.Run()
	h2 := e.Schedule(20, func() { log = append(log, 2) })
	if h2.ev != h1.ev {
		t.Fatal("the fired event was not recycled first")
	}
	e.Cancel(h1)
	if h1.Pending() || !h2.Pending() {
		t.Fatal("a stale Handle to a fired handler event reached its slot's new event")
	}
	h3 := e.ScheduleHandler(30, &logger{id: 3, log: &log})
	e.Cancel(h3)
	h4 := e.ScheduleHandler(40, &logger{id: 4, log: &log})
	if h4.ev != h3.ev {
		t.Fatal("the canceled event was not recycled first")
	}
	e.Cancel(h3)
	if !h4.Pending() {
		t.Fatal("a stale Handle to a canceled handler event reached its slot's new event")
	}
	e.Run()
	if want := []int{1, 2, 4}; len(log) != len(want) || log[0] != 1 || log[1] != 2 || log[2] != 4 {
		t.Errorf("fired %v, want %v", log, want)
	}
}

// firingProbe checks Engine.Firing from inside its own Fire.
type firingProbe struct {
	e      *Engine
	h      Handle
	fired  bool
	firing Handle
}

func (p *firingProbe) Fire() { p.fired, p.firing = true, p.e.Firing() }

// Inside a handler's Fire, Firing names the Handle that scheduled it,
// already no longer Pending, and one handler shared by two events tells
// them apart.
func TestFiringInsideHandler(t *testing.T) {
	e := New()
	a, b := &firingProbe{e: e}, &firingProbe{e: e}
	a.h = e.ScheduleHandler(10, a)
	b.h = e.ScheduleHandler(10, b)
	stale := e.ScheduleHandler(20, a)
	e.RunUntil(10)
	for _, p := range []*firingProbe{a, b} {
		if !p.fired || p.firing != p.h || p.firing.Pending() {
			t.Errorf("Firing inside Fire = %+v, want %+v and not pending", p.firing, p.h)
		}
	}
	e.Run()
	if a.firing != stale || a.firing == a.h {
		t.Errorf("a handler shared by two events saw %+v at its second, want %+v", a.firing, stale)
	}
}

// hopper reschedules itself from its own Fire, as a packet does: one
// flag says which of two alternating steps the pending event runs.
type hopper struct {
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
	p.e.AfterHandler(d, p)
}

// A handler reschedules itself from its own Fire, the slot it fired from
// reused, among other traffic on the same delays.
func TestHandlerReschedulesItself(t *testing.T) {
	e := New()
	ps := []*hopper{{e: e, hops: 50}, {e: e, hops: 50}}
	for i, p := range ps {
		e.ScheduleHandler(simtime.Time(i), p)
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
