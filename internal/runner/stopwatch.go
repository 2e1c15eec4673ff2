package runner

import "time"

// Stopwatch measures host time for report metadata (a CLI banner, a
// scalability row's events/s): the one sanctioned wall-clock read in the
// model packages and commands. An elapsed time may be printed or stored
// in a result's timing fields, never fed back into a simulation.
type Stopwatch struct{ start time.Time }

// StartStopwatch starts timing now. It is the determinism check's one
// named exemption (internal/analysis): its clock read is allowed, and
// the check fails if it is renamed or stops reading the clock.
func StartStopwatch() Stopwatch {
	return Stopwatch{time.Now()}
}

// Elapsed reports the host time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return StartStopwatch().start.Sub(s.start) }
