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

// A schedule that would be a model bug panics: in the past, at Forever,
// with no func, or a recurrence that never advances the clock.
func TestSchedulePastPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(e *Engine)
	}{
		{"past", func(e *Engine) { e.Schedule(5, func() {}) }},
		{"forever", func(e *Engine) { e.Schedule(simtime.Forever, func() {}) }},
		{"nil fn", func(e *Engine) { e.Schedule(15, nil) }},
		{"every period 0", func(e *Engine) { e.Every(10, 0, 20, func() {}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			e.Schedule(10, func() {})
			e.Run()
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.call(e)
		})
	}
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

// TestEngineSteadyStateZeroAlloc is the engine's allocation gate: once
// the pool, the rungs and the heap have grown to the workload, churn
// through top-rung buckets, a sorted run, a spawned rung, a heap split,
// cancels from the heap, a lane head, buckets and the spill, delay lanes
// claimed, freed and run over an empty ladder, and a same-time burst
// drained through the delay-0 lane allocates nothing.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	e := New()
	noop := func() {}
	var hs [200]Handle
	// cancel records where each canceled event was queued.
	var reached [numTiers]bool
	cancel := func(h Handle) {
		reached[e.tierOf(h)] = true
		e.Cancel(h)
	}
	// burst pushes 40 events below lim from inside a dispatch, out of
	// order and over 4 µs: more than splitAt, so the heap splits. Before
	// the split it arms four more among them and cancels each from the
	// heap at once.
	burst := func() {
		for i := 40; i > 0; i-- {
			e.After(simtime.Time(i)*100, noop)
			if i%8 == 0 && i > 8 {
				cancel(e.After(simtime.Time(i)*100+50, noop))
			}
		}
	}
	// same schedules 40 events at now from inside a dispatch: delay 0
	// claims a lane once and keeps it, since every cycle refills it.
	zeroLaned := false
	same := func() {
		for i := 0; i < 40; i++ {
			e.After(0, noop)
		}
		z := e.laneFor(0)
		zeroLaned = z >= 0 && e.lanes[z].n > 0
	}
	// link and link2 are chains through two delay lanes, d and d+1 µs
	// apart: each schedules its next link, twice in a row the first time
	// so the delay claims a lane. One link in three also arms a lane
	// event behind its own next link's twin, and the next link cancels
	// it from the lane's head. Each cycle's chains take the next of 24
	// delays, 10 to 125 µs: more than numLanes, so lanes are freed, and
	// claimed again once they turn cold, in every cycle.
	var d simtime.Time
	var armed Handle
	links, k := 0, 0
	var link, link2 func()
	link = func() {
		if links++; links > 200 {
			return
		}
		switch links % 3 {
		case 0:
			armed = e.After(d, noop)
		case 1:
			cancel(armed)
		}
		e.After(d, link)
	}
	link2 = func() {
		if links < 200 {
			e.After(d+simtime.Microsecond, link2)
		}
	}
	// tail is two more chains through d's lane once everything else has
	// run: with the ladder empty, a link past lim moves lim past the lane
	// head without a hand-down.
	tails := 0
	var tail func()
	tail = func() {
		if tails++; tails < 1000 {
			e.After(d, tail)
		}
	}
	cycle := func() {
		t0 := e.Now()
		for i := 0; i < 40; i++ { // in order: a run
			e.Schedule(t0+2*simtime.Millisecond+simtime.Time(i), noop)
		}
		for i := 64; i > 0; i-- { // reversed, over 640 ns: a rung
			e.Schedule(t0+5*simtime.Millisecond+simtime.Time(i)*10, noop)
		}
		// Two bursts: a cycle whose lim lies just past one burst's
		// instant, or whose run reaches past it, still splits at the
		// other, so every cycle splits a heap.
		e.Schedule(t0+3*simtime.Millisecond, burst)
		e.Schedule(t0+7*simtime.Millisecond, burst)
		e.Schedule(t0+8*simtime.Millisecond, same)
		for i := range hs { // armed and canceled: buckets
			hs[i] = e.Schedule(t0+simtime.Time(i+1)*simtime.Millisecond, noop)
		}
		for _, h := range hs {
			cancel(h)
		}
		cancel(e.Schedule(t0+3600*simtime.Second, noop)) // the spill
		k++
		d, links = simtime.Time(k%24+2)*5*simtime.Microsecond, 0
		e.After(d, link)
		e.After(d, link)
		e.After(d+simtime.Microsecond, link2)
		e.After(d+simtime.Microsecond, link2)
		e.Run()
		tails = 0
		e.After(d, tail)
		e.After(d, tail)
		e.Run()
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	before := e.Count
	zeroLaned = false
	reached = [numTiers]bool{}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("engine churn allocates %.1f times per cycle, want 0", allocs)
	}
	c := e.Count
	if c.Runs == before.Runs || c.Rungs == before.Rungs || c.Splits == before.Splits ||
		c.LanePushes == before.LanePushes || c.LaneClaims == before.LaneClaims {
		t.Errorf("a path was not exercised: runs %d->%d, rungs %d->%d, splits %d->%d, lane pushes %d->%d, lane claims %d->%d",
			before.Runs, c.Runs, before.Rungs, c.Rungs, before.Splits, c.Splits,
			before.LanePushes, c.LanePushes, before.LaneClaims, c.LaneClaims)
	}
	if !reached[inHeap] || !reached[inLaneHead] || !reached[inBucket] || !reached[inSpill] {
		t.Errorf("cancels did not reach every tier: heap %v, lane head %v, bucket %v, spill %v",
			reached[inHeap], reached[inLaneHead], reached[inBucket], reached[inSpill])
	}
	if !zeroLaned {
		t.Error("the same-time burst did not ride a delay-0 lane")
	}
}
