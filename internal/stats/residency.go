package stats

import (
	"sort"

	"holdcsim/internal/simtime"
)

// Residency tracks how long an entity spends in each named state — the
// basis of the paper's Fig. 8 (Active / Wake-up / Idle / PkgC6 / SysSleep
// stacked residency bars) and of switch port/line-card state accounting.
type Residency struct {
	name    string
	state   string
	lastT   simtime.Time
	t0      simtime.Time
	cur     simtime.Time // accumulated time in state not yet flushed to dur
	dur     map[string]simtime.Time
	started bool
}

// NewResidency returns an idle tracker; tracking starts at the first
// SetState call.
func NewResidency(name string) *Residency {
	return &Residency{name: name, dur: make(map[string]simtime.Time)}
}

// SetState records a transition to state at time t. Re-entering the
// current state is a no-op for accounting but allowed.
func (r *Residency) SetState(t simtime.Time, state string) {
	if !r.started {
		r.started = true
		r.t0 = t
		r.lastT = t
		r.state = state
		return
	}
	if t < r.lastT {
		panic("stats: Residency time went backwards in " + r.name)
	}
	if state == r.state {
		// Re-entering the current state needs no map write: the open
		// interval accumulates in cur and flushes on the next change.
		// (Simulated time is integer nanoseconds, so splitting the sum
		// is exact.)
		r.cur += t - r.lastT
		r.lastT = t
		return
	}
	r.dur[r.state] += r.cur + (t - r.lastT)
	r.cur = 0
	r.lastT = t
	r.state = state
}

// State reports the current state ("" before the first SetState).
func (r *Residency) State() string { return r.state }

// DurationTo reports total time spent in state up to t (including the
// currently open interval).
func (r *Residency) DurationTo(state string, t simtime.Time) simtime.Time {
	d := r.dur[state]
	if r.started && r.state == state {
		d += r.cur
		if t > r.lastT {
			d += t - r.lastT
		}
	}
	return d
}

// FractionsTo reports, for each observed state, the fraction of total
// tracked time spent in it, up to t.
func (r *Residency) FractionsTo(t simtime.Time) map[string]float64 {
	out := make(map[string]float64)
	r.AddFractionsTo(t, out) // 0 + x is exact
	return out
}

// AddFractionsTo accumulates the per-state fractions FractionsTo
// reports into `into`, without allocating a result map per call. Keys
// this tracker never observed are left untouched.
func (r *Residency) AddFractionsTo(t simtime.Time, into map[string]float64) {
	if !r.started {
		return
	}
	total := (t - r.t0).Seconds()
	if total <= 0 {
		return
	}
	//simlint:allow determinism DurationTo is a pure read and each accumulation is keyed by the loop key
	for s := range r.dur {
		into[s] += r.DurationTo(s, t).Seconds() / total
	}
	if _, tracked := r.dur[r.state]; !tracked {
		into[r.state] += r.DurationTo(r.state, t).Seconds() / total
	}
}

// States reports all observed state names, sorted.
func (r *Residency) States() []string {
	set := make(map[string]bool, len(r.dur)+1)
	for s := range r.dur {
		set[s] = true
	}
	if r.started {
		set[r.state] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
