// Package runner is the exemption fixture: StartStopwatch may read the
// wall clock, and nothing else in the package may.
package runner

import "time"

type Stopwatch struct{ start time.Time }

func StartStopwatch() Stopwatch {
	return Stopwatch{time.Now()} // the named exemption: no finding
}

func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start) // want "time.Since in model package"
}

func startedAt() time.Time {
	return time.Now() // want "time.Now in model package"
}
