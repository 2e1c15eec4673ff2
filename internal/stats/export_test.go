package stats

import "sort"

// Accessors only this package's tests read.

// Sum reports the total of all samples.
func (t *Tally) Sum() float64 { return t.mean * float64(t.n) }

// State reports the current state ("" before the first SetState).
func (r *Residency) State() string {
	if !r.started {
		return ""
	}
	return r.labels[r.state]
}

// States reports all observed state names, sorted.
func (r *Residency) States() []string {
	out := make([]string, 0, len(r.labels))
	for id, label := range r.labels {
		if r.observed(id) {
			out = append(out, label)
		}
	}
	sort.Strings(out)
	return out
}
