package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"holdcsim/internal/simtime"
)

func TestScheduleOrder(t *testing.T) {
	e := New()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("execution order = %v", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of scheduling order: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at simtime.Time
	e.Schedule(50, func() {
		e.After(25, func() { at = e.Now() })
	})
	e.Run()
	if at != 75 {
		t.Errorf("After fired at %v, want 75", at)
	}
}

// Every fires at first, first+period, ... while the next firing is no
// later than until, and re-arms after fn returns: an event fn schedules
// for the next firing's instant runs before that firing.
func TestEvery(t *testing.T) {
	e := New()
	var log []string
	e.Every(10, 5, 22, func() {
		log = append(log, fmt.Sprintf("tick@%d", e.Now()))
		at := e.Now()
		e.After(5, func() { log = append(log, fmt.Sprintf("child-of-%d@%d", at, e.Now())) })
	})
	e.Run() // drains: the callback stops re-arming at until
	want := "tick@10 child-of-10@15 tick@15 child-of-15@20 tick@20 child-of-20@25"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("Every sequence:\n got %s\nwant %s", got, want)
	}

	// until = Forever never stops re-arming.
	e = New()
	n := 0
	e.Every(0, 1, simtime.Forever, func() { n++ })
	e.RunUntil(99)
	if n != 100 || e.live != 1 {
		t.Errorf("open-ended Every: %d firings, %d queued; want 100, 1", n, e.live)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestScheduleNilPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	e.Schedule(5, nil)
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !ev.Pending() {
		t.Error("event should be pending")
	}
	e.Cancel(ev)
	if ev.Pending() {
		t.Error("canceled event still pending")
	}
	e.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Double cancel and zero-Handle cancel must be safe.
	e.Cancel(ev)
	e.Cancel(Handle{})
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var got []int
	evs := make([]Handle, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.Schedule(simtime.Time(i*10), func() { got = append(got, i) })
	}
	e.Cancel(evs[3])
	e.Cancel(evs[7])
	e.Run()
	want := []int{0, 1, 2, 4, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []simtime.Time
	for _, at := range []simtime.Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Errorf("fired %v, want events at 10 and 20", fired)
	}
	if e.Now() != 25 {
		t.Errorf("Now = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("fired %v, want all four", fired)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v, want 100", e.Now())
	}
}

func TestNextEventTime(t *testing.T) {
	e := New()
	if _, ok := e.NextEventTime(); ok {
		t.Error("empty engine reported a next event")
	}
	ev := e.Schedule(42, func() {})
	if at, ok := e.NextEventTime(); !ok || at != 42 {
		t.Errorf("NextEventTime = %v, %v", at, ok)
	}
	e.Cancel(ev)
	if _, ok := e.NextEventTime(); ok {
		t.Error("canceled event still reported as next")
	}
}

func TestDispatchedCounter(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.Schedule(simtime.Time(i), func() {})
	}
	e.Run()
	if e.Dispatched != 5 {
		t.Errorf("Dispatched = %d, want 5", e.Dispatched)
	}
}

// TestHeapOrderProperty: random schedules always execute in nondecreasing
// time order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(times []uint32) bool {
		e := New()
		var fired []simtime.Time
		for _, u := range times {
			at := simtime.Time(u % 1_000_000)
			e.Schedule(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRandomCancelProperty: canceling a random subset never executes the
// canceled ones and executes all others.
func TestRandomCancelProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		e := New()
		n := 200
		fired := make([]bool, n)
		evs := make([]Handle, n)
		for i := 0; i < n; i++ {
			i := i
			evs[i] = e.Schedule(simtime.Time(r.Intn(1000)), func() { fired[i] = true })
		}
		canceled := make([]bool, n)
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				canceled[i] = true
				e.Cancel(evs[i])
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			if canceled[i] && fired[i] {
				t.Fatalf("trial %d: canceled event %d fired", trial, i)
			}
			if !canceled[i] && !fired[i] {
				t.Fatalf("trial %d: live event %d did not fire", trial, i)
			}
		}
	}
}

func TestTimerResetStop(t *testing.T) {
	e := New()
	count := 0
	tm := NewTimer(e, func() { count++ })
	tm.Reset(10)
	if !tm.h.Pending() {
		t.Error("timer not armed after Reset")
	}
	if at, ok := e.NextEventTime(); !ok || at != 10 {
		t.Errorf("deadline = %v, %v; want 10", at, ok)
	}
	tm.Reset(20) // re-arm before expiry
	e.Run()
	if count != 1 {
		t.Errorf("timer fired %d times, want 1", count)
	}
	if e.Now() != 20 {
		t.Errorf("fired at %v, want 20", e.Now())
	}

	tm.Reset(5)
	if !tm.Stop() {
		t.Error("Stop did not report a pending cancel")
	}
	if tm.Stop() {
		t.Error("second Stop reported a cancel")
	}
	e.Run()
	if count != 1 {
		t.Errorf("stopped timer fired; count = %d", count)
	}
}

func TestTimerZeroDelay(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(10, func() {
		tm := NewTimer(e, func() { fired = true })
		tm.Reset(0)
	})
	e.Run()
	if !fired {
		t.Error("zero-delay timer did not fire")
	}
}
