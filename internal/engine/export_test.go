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

// heapLen is the bottom heap's length.
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

// queued counts the events in the tiers: the heap, the lanes, every
// rung's buckets and the spill. It walks the lists rather than trusting
// their counts.
func (e *Engine) queued() int {
	n := len(e.bottom) + len(e.spill)
	for i := range e.lanes {
		n += walk(&e.lanes[i])
	}
	for _, r := range e.rungs {
		for j := range r.buckets {
			n += walk(&r.buckets[j])
		}
	}
	return n
}

func walk(l *list) int {
	n := 0
	for ev := l.head; ev != nil; ev = ev.next {
		n++
	}
	return n
}

// Where a pending event sits, as tierOf reports it.
const (
	inHeap = iota
	inBucket
	inSpill
	inLaneHead // the head of a delay lane or of the run
	inLane     // behind a lane's head
	notPending
	numTiers
)

// tierOf reports where the event h names is queued.
func (e *Engine) tierOf(h Handle) int {
	if !h.Pending() {
		return notPending
	}
	switch p := h.ev.pos; {
	case p >= 0:
		return inHeap
	case p <= posSpill:
		return inSpill
	case p <= posBucket:
		return inBucket
	case e.lanes[posLane-p].head == h.ev:
		return inLaneHead
	default:
		return inLane
	}
}

// headOf returns the lane whose head is the event h names, or -1.
func (e *Engine) headOf(h Handle) int {
	if e.tierOf(h) != inLaneHead {
		return -1
	}
	return int(posLane - h.ev.pos)
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

// Stop disarms the timer. It reports whether a pending expiry was canceled.
func (t *Timer) Stop() bool {
	armed := t.h.Pending()
	t.eng.Cancel(t.h)
	t.h = Handle{}
	return armed
}
