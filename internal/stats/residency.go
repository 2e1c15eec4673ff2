package stats

import "holdcsim/internal/simtime"

// Residency tracks how long an entity spends in each named state — the
// basis of the paper's Fig. 8 (Active / Wake-up / Idle / PkgC6 / SysSleep
// stacked residency bars) and of switch port/line-card state accounting.
//
// States are small integer ids into a label table: SetState interns its
// label on first use, and an owner with a fixed state set shares one
// table across many trackers (Init) and drives them by index
// (SetStateID) — no map, no string compare. The zero value is an idle,
// anonymous tracker, ready to embed.
type Residency struct {
	name    string
	labels  []string       // id -> label, in interning (or Init table) order
	dur     []simtime.Time // id -> closed time; unobserved until first left
	state   int            // current id, once started
	lastT   simtime.Time
	t0      simtime.Time
	cur     simtime.Time // accumulated time in state not yet flushed to dur
	started bool
}

// unobserved marks a state never left. Results report a state once it
// has been current: one entered and left within an instant is a key
// with fraction 0, a table entry never entered is no key at all.
const unobserved = simtime.Time(-1)

// NewResidency returns an idle tracker; tracking starts at the first
// SetState call.
func NewResidency(name string) *Residency {
	return &Residency{name: name}
}

// Init binds an idle tracker to a fixed label table, never written, and
// to dur, the caller's storage for one duration per label.
func (r *Residency) Init(labels []string, dur []simtime.Time) {
	n := len(labels)
	r.labels, r.dur = labels[:n:n], dur[:n:n]
	for i := range r.dur {
		r.dur[i] = unobserved
	}
}

// SetState records a transition to state at time t. Re-entering the
// current state is a no-op for accounting but allowed.
func (r *Residency) SetState(t simtime.Time, state string) {
	id := r.lookup(state)
	if id < 0 {
		id = r.intern(state)
	}
	r.SetStateID(t, id)
}

// intern gives a new label the next id. Init clips its slices, so these
// appends copy rather than grow a shared table or block in place.
func (r *Residency) intern(label string) int {
	r.labels = append(r.labels, label)
	r.dur = append(r.dur, unobserved)
	return len(r.labels) - 1
}

// SetStateID is SetState by label-table index.
func (r *Residency) SetStateID(t simtime.Time, id int) {
	if !r.started {
		r.started = true
		r.t0 = t
		r.lastT = t
		r.state = id
		return
	}
	if t < r.lastT {
		panic("stats: Residency time went backwards in " + r.name)
	}
	if id == r.state {
		// Re-entering the current state needs no table write: the open
		// interval accumulates in cur and flushes on the next change.
		// (Simulated time is integer nanoseconds, so splitting the sum
		// is exact.)
		r.cur += t - r.lastT
		r.lastT = t
		return
	}
	r.dur[r.state] = max(r.dur[r.state], 0) + r.cur + (t - r.lastT)
	r.cur = 0
	r.lastT = t
	r.state = id
}

// lookup reports the id of label, or -1 if it was never interned.
func (r *Residency) lookup(label string) int {
	for i, l := range r.labels {
		if l == label {
			return i
		}
	}
	return -1
}

// observed reports whether id is a key of the results: left at least
// once, or current.
func (r *Residency) observed(id int) bool {
	return r.dur[id] >= 0 || (r.started && id == r.state)
}

// DurationTo reports total time spent in state up to t (including the
// currently open interval).
func (r *Residency) DurationTo(state string, t simtime.Time) simtime.Time {
	id := r.lookup(state)
	if id < 0 {
		return 0
	}
	d := max(r.dur[id], 0)
	if r.started && r.state == id {
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
	for id, label := range r.labels {
		if r.observed(id) {
			into[label] += r.DurationTo(label, t).Seconds() / total
		}
	}
}
