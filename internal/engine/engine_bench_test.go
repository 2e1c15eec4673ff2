package engine

import (
	"math/rand"
	"testing"

	"holdcsim/internal/simtime"
)

func BenchmarkScheduleAndRun(b *testing.B) {
	e := New()
	count := 0
	var next func()
	next = func() {
		count++
		if count < b.N {
			e.After(simtime.Microsecond, next)
		}
	}
	b.ResetTimer()
	e.After(simtime.Microsecond, next)
	e.Run()
}

func BenchmarkHeapChurn(b *testing.B) {
	// Many pending timers with random-ish deadlines: the delay-timer
	// workload shape (arm, cancel, re-arm).
	e := New()
	const pending = 4096
	evs := make([]Handle, pending)
	for i := range evs {
		evs[i] = e.Schedule(simtime.Time(i+1)*simtime.Second, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % pending
		e.Cancel(evs[idx])
		evs[idx] = e.Schedule(e.Now()+simtime.Time(idx+1)*simtime.Second, func() {})
	}
}

func BenchmarkTimerReset(b *testing.B) {
	e := New()
	tm := NewTimer(e, func() {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(simtime.Second)
	}
}

// benchDelays is a fixed table of n delays spread uniformly over
// [lo, hi), drawn from a seeded generator so every run and every
// commit sees the same sequence.
func benchDelays(n int, lo, hi simtime.Time) []simtime.Time {
	r := rand.New(rand.NewSource(1))
	d := make([]simtime.Time, n)
	for i := range d {
		d[i] = lo + simtime.Time(r.Int63n(int64(hi-lo)))
	}
	return d
}

// BenchmarkBurstDrain schedules one event per core of a 20,480-server,
// four-core farm at the same instant and drains them: farm-rr's start-up
// burst. One op is the whole burst.
func BenchmarkBurstDrain(b *testing.B) {
	const burst = 81920
	e := New()
	noop := func() {}
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			e.Schedule(e.Now(), noop)
		}
		e.Run()
	}
}

// BenchmarkDenseStream holds 100,000 pending events with delays of
// 1 µs to 10 ms, about 20 events per simulated µs: farm-rr's steady
// state. One op is one dispatch that schedules its successor.
func BenchmarkDenseStream(b *testing.B) {
	benchStream(b, 100000, benchDelays(4096, simtime.Microsecond, 10*simtime.Millisecond))
}

// BenchmarkPacketHorizon holds about 113 pending events 0.5 to 12 µs
// apart: dag-packet's per-hop packet events. One op is one dispatch
// that schedules its successor.
func BenchmarkPacketHorizon(b *testing.B) {
	benchStream(b, 113, benchDelays(4096, simtime.Microsecond/2, 12*simtime.Microsecond))
}

// BenchmarkFixedDelays holds about 113 pending events whose delays are
// dag-packet's four recurring ones, 0.5, 1.2, 1 and 50 µs, in its
// proportions (35/34/28/3): the packet hops that ride the delay lanes.
// One op is one dispatch that schedules its successor.
func BenchmarkFixedDelays(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	delays := make([]simtime.Time, 4096)
	for i := range delays {
		switch k := r.Intn(100); {
		case k < 35:
			delays[i] = simtime.Microsecond / 2
		case k < 69:
			delays[i] = 1200 * simtime.Nanosecond
		case k < 97:
			delays[i] = simtime.Microsecond
		default:
			delays[i] = 50 * simtime.Microsecond
		}
	}
	benchStream(b, 113, delays)
}

// benchStream keeps pending events queued: every dispatch schedules
// one more, its delay read round-robin from delays.
func benchStream(b *testing.B, pending int, delays []simtime.Time) {
	e := New()
	k := 0
	var next func()
	next = func() {
		e.After(delays[k%len(delays)], next)
		k++
	}
	for i := 0; i < pending; i++ {
		next()
	}
	for i := 0; i < 10*pending; i++ {
		e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
