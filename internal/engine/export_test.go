package engine

import "holdcsim/internal/simtime"

// Accessors only this package's tests read.

// NextEventTime reports the timestamp of the earliest pending event and
// whether one exists.
func (e *Engine) NextEventTime() (simtime.Time, bool) {
	ev := e.nextLive()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Canceled reports whether the event was canceled and has not yet been
// swept or recycled. A fired or recycled event reports false.
func (h Handle) Canceled() bool {
	return h.ev != nil && h.ev.gen == h.gen && h.ev.state == stateCanceled
}
