// Package simtime provides the virtual-time representation used throughout
// the simulator.
//
// Simulated time is an int64 count of nanoseconds since the start of the
// simulation. Integer time keeps the event queue ordering exact (no
// floating-point ties) and makes runs bit-reproducible across platforms.
package simtime

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
// It is also used for durations; the zero value is the simulation epoch.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Forever is a time later than any event a simulation will schedule:
// engine.Schedule rejects it, and a time that never comes needs no event.
const Forever Time = math.MaxInt64

// FromSeconds converts a float64 number of seconds to a Time, rounding to
// the nearest nanosecond.
func FromSeconds(s float64) Time {
	return Time(math.Round(s * float64(Second)))
}

// AddSeconds returns t + FromSeconds(s) for s ≥ 0, or Forever when that
// instant is not before Forever, which the clock never reaches. s is
// checked first: FromSeconds of 2^63 ns or more leaves int64.
func AddSeconds(t Time, s float64) Time {
	ns := s * float64(Second)
	if !(ns < float64(Forever)) {
		return Forever
	}
	if d := Time(math.Round(ns)); d < Forever-t {
		return t + d
	}
	return Forever
}

// Seconds reports t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "1.5ms" or "2.25s".
func (t Time) String() string {
	switch {
	case t == Forever:
		return "forever"
	case t < 0 && t != math.MinInt64: // -MinInt64 wraps to itself
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3gus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3gms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4gs", float64(t)/float64(Second))
	}
}

// Max returns the larger of a and b.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
