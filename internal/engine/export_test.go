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

// depth is the number of live rungs below the top one.
func (e *Engine) depth() int { return len(e.rungs) - 1 }

// collapsed reports whether a spawned rung ends at simtime.Forever: a
// hand-down reaching the end of the time axis spawned it.
func (e *Engine) collapsed() bool {
	for _, r := range e.rungs[1:] {
		if r.end == simtime.Forever {
			return true
		}
	}
	return false
}

// heapLen is the bottom heap's length, tombstones included.
func (e *Engine) heapLen() int { return len(e.bottom) }

// splitRefused reports whether a heap past splitAt would be left as it
// is: a live run reaches the heap's minimum, or [heap min, lim) is
// narrower than a rung.
func (e *Engine) splitRefused() bool {
	if len(e.bottom) == 0 {
		return true
	}
	lo := e.bottom[0].at
	return e.lanes[runLane].n > 0 && e.lanes[runLane].tail.at >= lo || e.lim-lo < minSpan
}

// tombstones is the number of canceled events still queued.
func (e *Engine) tombstones() int { return e.canceled }

// laneHeadCanceled reports whether some lane's head is a tombstone.
func (e *Engine) laneHeadCanceled() bool {
	for i := range e.lanes {
		if h := e.lanes[i].head; h != nil && h.state == stateCanceled {
			return true
		}
	}
	return false
}

// nowInThreeTiers reports whether the heap, the run lane and a lane
// claimed by delay 0 each hold an event at now.
func (e *Engine) nowInThreeTiers() bool {
	z := e.laneFor(0)
	if z < 0 || e.lanes[z].n == 0 || e.lanes[runLane].n == 0 || e.lanes[runLane].head.at != e.now {
		return false
	}
	for _, ev := range e.bottom {
		if ev.at == e.now {
			return true
		}
	}
	return false
}
