package stats

import (
	"slices"
	"sort"

	"holdcsim/internal/simtime"
)

// Residency tracks how long an entity spends in each named state — the
// basis of the paper's Fig. 8 (Active / Wake-up / Idle / PkgC6 / SysSleep
// stacked residency bars) and of switch port/line-card state accounting.
//
// States are small integer ids into a label table: SetState interns its
// label on first use, and an owner with a fixed state set shares one
// table across many trackers (Init) and drives them by index
// (SetStateID) — no map, no string compare. The zero value is an idle,
// anonymous tracker, ready to embed. The durations of the first
// inlineStates ids live in the tracker, so an owner that embeds it —
// a server, a switch — keeps them in its own record.
//
// A tracker keeps no name, no start time and no open-interval sum: every
// instant from the first SetState to lastT is closed into exactly one
// state's duration, so the start is lastT less their sum (integer
// nanoseconds, exact), and a re-entry leaves the open interval running.
type Residency struct {
	labels *[]string // id -> label, in interning (or Init table) order
	// dur and more map id -> closed time, unobserved until first left:
	// dur the ids below inlineStates, more the rest, nil until a tracker
	// has more.
	dur     [inlineStates]simtime.Time
	more    *[]simtime.Time
	lastT   simtime.Time // when state was entered
	state   int32        // current id, once started
	started bool
	shared  bool // labels is an Init table: intern copies it first
}

// inlineStates is how many states' durations a tracker holds in itself:
// a server's six (power.ServerStates), which TestTableIServerBytes
// checks, and a switch's four.
const inlineStates = 6

// unobserved marks a state never left. Results report a state once it
// has been current: one entered and left within an instant is a key
// with fraction 0, a table entry never entered is no key at all.
const unobserved = simtime.Time(-1)

// NewResidency returns an idle tracker; tracking starts at the first
// SetState call. The name is for the caller's reading only: a tracker
// does not keep it.
func NewResidency(string) *Residency { return new(Residency) }

// Init binds an idle tracker to a fixed label table, shared and never
// written.
func (r *Residency) Init(labels *[]string) {
	r.labels, r.shared = labels, true
	r.extend(0, len(*labels))
}

// extend makes room for the durations of ids from to n, each
// unobserved.
func (r *Residency) extend(from, n int) {
	for id := from; id < n; id++ {
		if id < inlineStates {
			r.dur[id] = unobserved
			continue
		}
		if r.more == nil {
			r.more = new([]simtime.Time)
		}
		*r.more = append(*r.more, unobserved)
	}
}

// durOf is where id's closed time is kept.
func (r *Residency) durOf(id int) *simtime.Time {
	if id < inlineStates {
		return &r.dur[id]
	}
	return &(*r.more)[id-inlineStates]
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

// intern gives a new label the next id, in a table of the tracker's
// own: a shared table is copied first, so this append never writes it.
func (r *Residency) intern(label string) int {
	if r.labels == nil || r.shared {
		var own []string
		if r.labels != nil {
			own = slices.Clone(*r.labels)
		}
		r.labels, r.shared = &own, false
	}
	*r.labels = append(*r.labels, label)
	n := len(*r.labels)
	r.extend(n-1, n)
	return n - 1
}

// SetStateID is SetState by label-table index.
func (r *Residency) SetStateID(t simtime.Time, id int) {
	if !r.started {
		r.started = true
		r.lastT = t
		r.state = int32(id)
		return
	}
	if t < r.lastT {
		panic("stats: Residency time went backwards")
	}
	if id == int(r.state) {
		// Re-entering the current state writes nothing: the open
		// interval runs on from lastT.
		return
	}
	d := r.durOf(int(r.state))
	*d = max(*d, 0) + (t - r.lastT)
	r.lastT = t
	r.state = int32(id)
}

// start reports when tracking began: lastT less the closed durations.
func (r *Residency) start() simtime.Time {
	t0 := r.lastT
	for id := range *r.labels {
		t0 -= max(*r.durOf(id), 0)
	}
	return t0
}

// lookup reports the id of label, or -1 if it was never interned.
func (r *Residency) lookup(label string) int {
	if r.labels == nil {
		return -1
	}
	for i, l := range *r.labels {
		if l == label {
			return i
		}
	}
	return -1
}

// observed reports whether id is a key of the results: left at least
// once, or current.
func (r *Residency) observed(id int) bool {
	return *r.durOf(id) >= 0 || (r.started && id == int(r.state))
}

// DurationTo reports total time spent in state up to t (including the
// currently open interval).
func (r *Residency) DurationTo(state string, t simtime.Time) simtime.Time {
	id := r.lookup(state)
	if id < 0 {
		return 0
	}
	d := max(*r.durOf(id), 0)
	if r.started && int(r.state) == id {
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

// SortedStates lists the states of a per-state map such as FractionsTo's
// in sorted order, the order to iterate it in: map order is randomized,
// and a float sum over the states depends on the order it takes.
func SortedStates(m map[string]float64) []string {
	states := make([]string, 0, len(m))
	for s := range m {
		states = append(states, s)
	}
	sort.Strings(states)
	return states
}

// AddFractionsTo accumulates the per-state fractions FractionsTo
// reports into `into`, without allocating a result map per call. Keys
// this tracker never observed are left untouched.
func (r *Residency) AddFractionsTo(t simtime.Time, into map[string]float64) {
	if !r.started {
		return
	}
	total := (t - r.start()).Seconds()
	if total <= 0 {
		return
	}
	for id, label := range *r.labels {
		if r.observed(id) {
			into[label] += r.DurationTo(label, t).Seconds() / total
		}
	}
}
