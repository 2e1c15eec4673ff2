package engine

import "holdcsim/internal/simtime"

// Timer is a restartable one-shot timer on the virtual clock bound to a
// func(). The model's own countdowns — the farm's sleep planner, each
// link's LPI idle threshold, each switch's sleep timer — embed an Event
// and implement Handler instead, which takes this adapter's extra
// indirect call and its pooled event off every expiry; Timer stays for
// the frozen bench/ module, whose engine.timer_reset_ns row measures it.
//
// A Timer is bound to one Engine and one callback; Reset re-arms it,
// canceling any pending expiry. Every Reset schedules the same callback
// and the queue entry comes from the engine's event pool, so the
// arm/cancel/re-arm churn allocates nothing. Step recycles an event
// before running it, so a fired Timer's handle is already stale: it is
// not Pending, and Reset cancels nothing.
type Timer struct {
	eng *Engine
	fn  funcHandler
	h   Handle
}

// NewTimer returns an unarmed timer that will invoke fn on expiry.
func NewTimer(eng *Engine, fn func()) *Timer {
	if fn == nil {
		panic("engine: NewTimer with nil func")
	}
	return &Timer{eng: eng, fn: fn}
}

// Reset arms the timer to fire d from now, canceling any pending expiry.
// A zero d fires at the current time (still via the event queue, preserving
// deterministic ordering).
func (t *Timer) Reset(d simtime.Time) {
	t.eng.Cancel(t.h)
	t.h = t.eng.push(nil, t.eng.now+d, t.fn)
}
