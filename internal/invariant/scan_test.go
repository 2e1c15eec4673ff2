package invariant

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/workload"
)

func TestScanBudgetResolution(t *testing.T) {
	if got := newRig(t, 2, 1, Options{}).c.scanBudget; got != 256 {
		t.Errorf("default scan budget %d, want 256", got)
	}
	if got := newRig(t, 2, 1, Options{ScanBudget: -3}).c.scanBudget; got != -1 {
		t.Errorf("negative scan budget resolved to %d, want -1 (unbounded)", got)
	}
	if got := newRig(t, 2, 1, Options{ScanBudget: 7}).c.scanBudget; got != 7 {
		t.Errorf("explicit scan budget resolved to %d, want 7", got)
	}
}

func TestDirtySetFirstTouchOrder(t *testing.T) {
	r := newRig(t, 8, 1, Options{ScanBudget: 4})
	srvs := r.farm
	r.c.markDirty(srvs[5])
	r.c.markDirty(srvs[2])
	r.c.markDirty(srvs[5]) // duplicate: already marked
	if len(r.c.dirty) != 2 || r.c.dirty[0] != 5 || r.c.dirty[1] != 2 {
		t.Fatalf("dirty = %v, want [5 2] in first-touch order", r.c.dirty)
	}
	if !r.c.isDirty(5) || !r.c.isDirty(2) || r.c.isDirty(3) {
		t.Fatalf("dirty bitset out of sync with list")
	}
	r.c.clearDirty()
	if len(r.c.dirty) != 0 || r.c.isDirty(5) || r.c.isDirty(2) {
		t.Fatalf("clearDirty left state behind: %v", r.c.dirty)
	}
}

// The bounded scan spends its budget dirty-first, then advances the
// rotating cursor; dirty servers scanned this round are not re-scanned
// off the cursor.
func TestBoundedScanRotatesCursor(t *testing.T) {
	r := newRig(t, 8, 1, Options{ScanBudget: 3})
	r.c.deepScan()
	r.c.deepScan()
	r.c.deepScan() // 9 cursor steps wrap the 8-server farm
	if r.c.cursor != 1 {
		t.Fatalf("cursor = %d after three budget-3 scans of 8 servers, want 1", r.c.cursor)
	}
	srvs := r.farm
	r.c.markDirty(srvs[1]) // sits at the cursor: must be skipped there
	r.c.markDirty(srvs[0])
	r.c.deepScan() // 2 dirty + 1 from cursor (skipping dirty server 1)
	if r.c.cursor != 3 {
		t.Fatalf("cursor = %d after dirty-first scan, want 3", r.c.cursor)
	}
	if len(r.c.dirty) != 0 {
		t.Fatalf("scan left dirty set %v", r.c.dirty)
	}
	// A dirty set larger than the budget still drains fully and leaves
	// the cursor alone.
	for _, i := range []int{7, 6, 5, 4, 2} {
		r.c.markDirty(srvs[i])
	}
	r.c.deepScan()
	if r.c.cursor != 3 {
		t.Fatalf("cursor = %d after over-budget dirty drain, want 3", r.c.cursor)
	}
	if v := r.c.Violations(); len(v) != 0 {
		t.Fatalf("idle-farm scans reported violations: %v", v)
	}
}

func TestCleanRunBoundedScanNoViolations(t *testing.T) {
	r := newRig(t, 16, 300, Options{ScanBudget: 2, SampleEvery: 1})
	r.run()
	if v := r.c.Finalize(r.eng.Now()); len(v) != 0 {
		t.Fatalf("bounded-scan run reported violations: %v", v)
	}
}

// With Options.Farm set, Finalize closes the task-conservation books
// from the farm's O(1) incremental aggregates; they must agree with a
// per-server walk, and the run must stay clean.
func TestFarmAggregateFinalize(t *testing.T) {
	eng := engine.New()
	farm := server.NewFarm(eng)
	const n = 6
	srvs := make([]*server.Server, n)
	for i := range srvs {
		srv, err := farm.Add(i, server.DefaultConfig(power.FourCoreServer()))
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
	}
	s, err := sched.New(eng, srvs, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(eng, rng.New(7), workload.Poisson{Rate: 500},
		workload.SingleTask{Service: workload.WebSearchService()},
		s.JobArrived)
	gen.MaxJobs = 150
	c := Attach(eng, gen, s, srvs, nil, Options{Farm: farm, ScanBudget: 2, SampleEvery: 1})
	gen.Start()
	eng.Run()
	if v := c.Finalize(eng.Now()); len(v) != 0 {
		t.Fatalf("farm-aggregate run reported violations: %v", v)
	}
	var done, pend int64
	for _, srv := range srvs {
		done += srv.CompletedTasks()
		pend += int64(srv.PendingTasks())
	}
	if farm.TotalCompleted() != done || farm.TotalPending() != pend {
		t.Fatalf("farm aggregates (done %d, pending %d) != walked sums (%d, %d)",
			farm.TotalCompleted(), farm.TotalPending(), done, pend)
	}
}
