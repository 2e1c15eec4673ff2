package engine

import "holdcsim/internal/simtime"

// Timer is a restartable one-shot timer on the virtual clock, used for
// delay timers (Sec. IV-B of the paper), LPI idle thresholds, and similar
// "fire unless something happens first" policies.
//
// A Timer is bound to one Engine and one callback; Reset re-arms it,
// canceling any pending expiry. The expiry closure is created once at
// construction and the queue entry comes from the engine's event pool, so
// the arm/cancel/re-arm churn these policies generate allocates nothing.
type Timer struct {
	eng  *Engine
	fn   func()
	fire func() // cached wrapper scheduled on every Reset
	h    Handle
}

// NewTimer returns an unarmed timer that will invoke fn on expiry.
func NewTimer(eng *Engine, fn func()) *Timer {
	if fn == nil {
		panic("engine: NewTimer with nil func")
	}
	t := &Timer{eng: eng, fn: fn}
	t.fire = func() {
		t.h = Handle{}
		t.fn()
	}
	return t
}

// Reset arms the timer to fire d from now, canceling any pending expiry.
// A zero d fires at the current time (still via the event queue, preserving
// deterministic ordering).
func (t *Timer) Reset(d simtime.Time) {
	t.eng.Cancel(t.h)
	t.h = t.eng.After(d, t.fire)
}

// Stop disarms the timer. It reports whether a pending expiry was canceled.
func (t *Timer) Stop() bool {
	armed := t.h.Pending()
	t.eng.Cancel(t.h)
	t.h = Handle{}
	return armed
}
