// Package trace provides the trace-driven workload substrate of HolDCSim.
//
// The paper drives its case studies with two public traces we cannot
// redistribute or access offline:
//
//   - the Wikipedia request trace [59] (Secs. IV-A, IV-C, V-B), and
//   - an NLANR HTTP trace [2] (Sec. V-A).
//
// Per the reproduction ground rules, this package synthesizes traces with
// the same *behavioral* content: the Wikipedia generator produces the
// diurnal rate swings that drive provisioning and power-state decisions;
// the NLANR generator produces heavy-tailed ON/OFF burstiness that
// exercises C-state transitions during validation. Both are deterministic
// per seed. Plain-text trace files (one arrival timestamp per line, in
// seconds) can also be loaded and saved, mirroring the paper's modified
// httperf replay flow.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Trace is a sequence of arrival timestamps in seconds, nondecreasing.
type Trace struct {
	// Times holds arrival instants in seconds from trace start.
	Times []float64
}

// Len reports the number of arrivals.
func (t *Trace) Len() int { return len(t.Times) }

// Duration reports the time of the last arrival (0 for an empty trace).
func (t *Trace) Duration() float64 {
	if len(t.Times) == 0 {
		return 0
	}
	return t.Times[len(t.Times)-1]
}

// MeanRate reports arrivals per second over the trace duration.
func (t *Trace) MeanRate() float64 {
	d := t.Duration()
	if d <= 0 {
		return 0
	}
	return float64(len(t.Times)) / d
}

// Validate checks that timestamps are finite, nonnegative and
// nondecreasing. (NaN compares false against everything, so without an
// explicit finiteness check a NaN timestamp would slip through the
// ordering tests and corrupt replay arithmetic downstream.)
func (t *Trace) Validate() error {
	prev := 0.0
	for i, x := range t.Times {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("trace: non-finite timestamp %g at index %d", x, i)
		}
		if x < 0 {
			return fmt.Errorf("trace: negative timestamp %g at index %d", x, i)
		}
		if x < prev {
			return fmt.Errorf("trace: timestamps decrease at index %d (%g < %g)", i, x, prev)
		}
		prev = x
	}
	return nil
}

// Scale multiplies every timestamp by f (finite, > 0), stretching
// (f > 1) or compressing (f < 1) the trace to retune its average load.
func (t *Trace) Scale(f float64) {
	if f <= 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		panic("trace: scale factor must be finite and positive")
	}
	for i := range t.Times {
		t.Times[i] *= f
	}
}

// Clip returns a new Trace containing arrivals in [from, to), rebased so
// the window starts at 0. An empty or inverted window yields an empty
// trace. Non-finite bounds are rejected: NaN compares false against
// every timestamp, so sort.SearchFloat64s would return an arbitrary
// window, and a NaN from would poison every rebased timestamp.
func (t *Trace) Clip(from, to float64) (*Trace, error) {
	if math.IsNaN(from) || math.IsInf(from, 0) || math.IsNaN(to) || math.IsInf(to, 0) {
		return nil, fmt.Errorf("trace: non-finite clip window [%g, %g)", from, to)
	}
	lo := sort.SearchFloat64s(t.Times, from)
	hi := sort.SearchFloat64s(t.Times, to)
	if hi < lo {
		hi = lo
	}
	out := make([]float64, hi-lo)
	for i, x := range t.Times[lo:hi] {
		out[i] = x - from
	}
	return &Trace{Times: out}, nil
}

// DefaultMaxArrivals bounds how many arrivals Read accepts (40 MB of
// timestamps — generously above the paper's replayed traces) so a
// pathological or hostile input file cannot exhaust memory.
const DefaultMaxArrivals = 5_000_000

// Read parses a trace from one-timestamp-per-line text. Blank lines and
// lines starting with '#' are skipped. The result is validated and
// capped at DefaultMaxArrivals (use ReadCapped to choose the bound).
func Read(r io.Reader) (*Trace, error) {
	return ReadCapped(r, DefaultMaxArrivals)
}

// ReadCapped is Read with an explicit arrival-count bound: an input
// with more than max timestamps errors instead of growing without
// limit. max <= 0 means DefaultMaxArrivals.
func ReadCapped(r io.Reader, max int) (*Trace, error) {
	if max <= 0 {
		max = DefaultMaxArrivals
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var times []float64
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if len(times) >= max {
			return nil, fmt.Errorf("trace: line %d: more than %d arrivals", line, max)
		}
		times = append(times, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	t := &Trace{Times: times}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
