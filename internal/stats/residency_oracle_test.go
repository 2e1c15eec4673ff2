package stats

import (
	"reflect"
	"sort"
	"testing"

	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
)

// mapResidency is the string-keyed tracker Residency replaced, kept as
// the oracle: its key set — a map entry appears when a state is left,
// even after a zero-length visit — is part of every results digest.
type mapResidency struct {
	state          string
	lastT, t0, cur simtime.Time
	dur            map[string]simtime.Time
	started        bool
}

func (r *mapResidency) SetState(t simtime.Time, state string) {
	if !r.started {
		r.started, r.t0, r.lastT, r.state = true, t, t, state
		return
	}
	if state == r.state {
		r.cur += t - r.lastT
		r.lastT = t
		return
	}
	r.dur[r.state] += r.cur + (t - r.lastT)
	r.cur, r.lastT, r.state = 0, t, state
}

func (r *mapResidency) DurationTo(state string, t simtime.Time) simtime.Time {
	d := r.dur[state]
	if r.started && r.state == state {
		d += r.cur
		if t > r.lastT {
			d += t - r.lastT
		}
	}
	return d
}

func (r *mapResidency) States() []string {
	set := map[string]bool{}
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

func (r *mapResidency) FractionsTo(t simtime.Time) map[string]float64 {
	out := map[string]float64{}
	total := (t - r.t0).Seconds()
	if !r.started || total <= 0 {
		return out
	}
	for _, s := range r.States() {
		out[s] += r.DurationTo(s, t).Seconds() / total
	}
	return out
}

// TestResidencyMatchesMapOracle drives random (time, label) sequences —
// zero-length visits, re-entries, labels that are never used — through
// the slice-backed tracker in both its forms (labels interned on the
// fly; a fixed table driven by index) and the map-based oracle, and
// requires DurationTo, States and FractionsTo to agree exactly at every
// step.
func TestResidencyMatchesMapOracle(t *testing.T) {
	table := []string{"Active", "Wake-up", "Idle", "PkgC6", "SysSleep", "Off", "Down"}
	probe := append([]string{"never", ""}, table...)
	for seed := uint64(1); seed <= 200; seed++ {
		r := rng.New(seed)
		oracle := &mapResidency{dur: map[string]simtime.Time{}}
		interned := NewResidency("interned")
		var byID Residency
		byID.Init(&table)
		used := 1 + r.IntN(len(table)) // some tables are only partly visited
		now := simtime.Time(r.IntN(5))
		for step := 0; step < 60; step++ {
			if r.IntN(3) > 0 { // one step in three is a zero-length visit
				now += simtime.Time(r.IntN(1000))
			}
			id := r.IntN(used)
			oracle.SetState(now, table[id])
			interned.SetState(now, table[id])
			if step%2 == 0 {
				byID.SetStateID(now, id)
			} else {
				byID.SetState(now, table[id])
			}
			at := now + simtime.Time(r.IntN(3))
			for name, got := range map[string]*Residency{"interned": interned, "by id": &byID} {
				if g, w := got.State(), oracle.state; g != w {
					t.Fatalf("seed %d step %d %s: State %q, oracle %q", seed, step, name, g, w)
				}
				if g, w := got.States(), oracle.States(); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d %s: States %v, oracle %v", seed, step, name, g, w)
				}
				if g, w := got.FractionsTo(at), oracle.FractionsTo(at); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d %s: FractionsTo %v, oracle %v", seed, step, name, g, w)
				}
				for _, s := range probe {
					if g, w := got.DurationTo(s, at), oracle.DurationTo(s, at); g != w {
						t.Fatalf("seed %d step %d %s: DurationTo(%q) %v, oracle %v", seed, step, name, s, g, w)
					}
				}
			}
		}
	}
}

// TestResidencyInitSharesTableSafely pins what a farm relies on: many
// trackers over one label table stay independent, and a label outside
// the table lands in a private copy.
func TestResidencyInitSharesTableSafely(t *testing.T) {
	table := []string{"A", "B"}
	var r1, r2 Residency
	r1.Init(&table)
	r2.Init(&table)
	r1.SetStateID(0, 0)
	r2.SetStateID(0, 1)
	r1.SetState(10, "C") // not in the table: must not write through it
	r1.SetStateID(30, 1)
	r2.SetStateID(30, 0)
	if len(table) != 2 || cap(table) != 2 || table[0] != "A" || table[1] != "B" {
		t.Fatalf("shared table changed: %v", table)
	}
	if got, want := r1.States(), []string{"A", "B", "C"}; !reflect.DeepEqual(got, want) {
		t.Errorf("r1 states %v, want %v", got, want)
	}
	if got, want := r2.States(), []string{"A", "B"}; !reflect.DeepEqual(got, want) {
		t.Errorf("r2 states %v, want %v", got, want)
	}
	if d := r1.DurationTo("C", 40); d != 20 {
		t.Errorf("r1 C duration %v, want 20", d)
	}
	if d := r2.DurationTo("B", 40); d != 30 {
		t.Errorf("r2 B duration %v, want 30", d)
	}
}
