package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Outage is one recorded failure event: a component (or failure domain)
// goes down at Start seconds for Dur seconds. Scope names the failure
// domain kind; Target indexes the domain instance. The fault package
// maps Scope onto its ScopeKind vocabulary and replays the event
// through the injector.
type Outage struct {
	Start  float64
	Dur    float64
	Scope  string
	Target int
}

// OutageScopes is the accepted scope vocabulary of an outage log, in
// the fault package's ScopeKind order.
var OutageScopes = [...]string{"server", "rack", "pod", "switch"}

// DefaultMaxOutages bounds how many events ReadOutages accepts, so a
// pathological or hostile log cannot exhaust memory. Real incident logs
// are orders of magnitude smaller.
const DefaultMaxOutages = 1_000_000

// ReadOutages parses an outage log: one `start dur scope target` event
// per line (whitespace-separated), blank lines and '#' comments
// skipped. Events are validated — finite nonnegative start and
// duration, nondecreasing starts, a known scope word, nonnegative
// target — and capped at DefaultMaxOutages.
func ReadOutages(r io.Reader) ([]Outage, error) {
	return ReadOutagesCapped(r, DefaultMaxOutages)
}

// ReadOutagesCapped is ReadOutages with an explicit event bound.
// max <= 0 means DefaultMaxOutages.
func ReadOutagesCapped(r io.Reader, max int) ([]Outage, error) {
	if max <= 0 {
		max = DefaultMaxOutages
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var out []Outage
	line := 0
	prev := 0.0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		fields := strings.Fields(s)
		if len(fields) != 4 {
			return nil, fmt.Errorf("trace: outage line %d: want `start dur scope target`, got %d fields", line, len(fields))
		}
		start, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: outage line %d: start: %w", line, err)
		}
		dur, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: outage line %d: dur: %w", line, err)
		}
		if math.IsNaN(start) || math.IsInf(start, 0) || math.IsNaN(dur) || math.IsInf(dur, 0) {
			return nil, fmt.Errorf("trace: outage line %d: non-finite time", line)
		}
		if start < 0 || dur < 0 {
			return nil, fmt.Errorf("trace: outage line %d: negative time", line)
		}
		if start < prev {
			return nil, fmt.Errorf("trace: outage line %d: start %g before previous %g", line, start, prev)
		}
		prev = start
		scope := fields[2]
		known := false
		for _, k := range OutageScopes {
			if scope == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("trace: outage line %d: unknown scope %q (want one of %v)", line, scope, OutageScopes)
		}
		target, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("trace: outage line %d: target: %w", line, err)
		}
		if target < 0 {
			return nil, fmt.Errorf("trace: outage line %d: negative target %d", line, target)
		}
		if len(out) >= max {
			return nil, fmt.Errorf("trace: outage line %d: more than %d events", line, max)
		}
		out = append(out, Outage{Start: start, Dur: dur, Scope: scope, Target: target})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
