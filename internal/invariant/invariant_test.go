package invariant

import (
	"strings"
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// rig is a minimal data center: engine, a small farm, a scheduler and a
// Poisson generator, with a checker attached.
type rig struct {
	eng  *engine.Engine
	farm []*server.Server
	s    *sched.Scheduler
	gen  *workload.Generator
	c    *Checker
}

func newRig(t *testing.T, servers int, jobs int64, opts Options) *rig {
	return newRigPolicy(t, servers, jobs, opts, sched.OrphanRequeue)
}

func newRigPolicy(t *testing.T, servers int, jobs int64, opts Options, policy sched.OrphanPolicy) *rig {
	t.Helper()
	eng := engine.New()
	f := server.NewFarm(eng)
	farm := make([]*server.Server, servers)
	for i := range farm {
		srv, err := f.Add(i, server.DefaultConfig(power.FourCoreServer()))
		if err != nil {
			t.Fatal(err)
		}
		farm[i] = srv
	}
	s, err := sched.New(eng, farm, sched.Config{Orphans: policy})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(eng, rng.New(7), workload.Poisson{Rate: 500},
		workload.SingleTask{Service: workload.WebSearchService()},
		s.JobArrived)
	gen.MaxJobs = jobs
	c := Attach(eng, gen, s, farm, nil, opts)
	return &rig{eng: eng, farm: farm, s: s, gen: gen, c: c}
}

func (r *rig) run() {
	r.gen.Start()
	r.eng.Run()
}

// The scope hook walks everything only at Finalize: every deep scan
// asks for the changes since the last one, and Finalize for the full
// walk, exactly once.
func TestScopeCheckFullOnlyAtFinalize(t *testing.T) {
	var scans, full int
	r := newRig(t, 4, 200, Options{ScopeCheck: func(f bool) error {
		if f {
			full++
		} else {
			scans++
		}
		return nil
	}})
	r.run()
	if full != 0 || scans == 0 {
		t.Fatalf("during the run: %d full walks and %d scans, want none and some", full, scans)
	}
	r.c.Finalize(r.eng.Now())
	r.c.Finalize(r.eng.Now())
	if full != 1 {
		t.Errorf("Finalize asked for %d full walks, want 1", full)
	}
}

func TestCleanRunHasNoViolations(t *testing.T) {
	r := newRig(t, 4, 200, Options{Stationary: true})
	r.run()
	if v := r.c.Finalize(r.eng.Now()); len(v) != 0 {
		t.Fatalf("clean run reported violations: %v", v)
	}
	if err := r.c.Err(); err != nil {
		t.Fatalf("Err() = %v on a clean run", err)
	}
}

func TestFinalizeIsIdempotent(t *testing.T) {
	r := newRig(t, 2, 50, Options{})
	r.run()
	end := r.eng.Now()
	if v := r.c.Finalize(end); len(v) != 0 {
		t.Fatalf("first finalize: %v", v)
	}
	// A second call must not re-run the laws (a persistent violation
	// would double-report); it returns the recorded set unchanged.
	r.c.jobNanoSecs += 99 // would trip little-exact if laws re-ran
	if v := r.c.Finalize(end + simtime.Second); len(v) != 0 {
		t.Fatalf("re-finalize re-ran the end-of-run laws: %v", v)
	}
}

func TestDetectsTamperedCompletionCount(t *testing.T) {
	r := newRig(t, 2, 50, Options{})
	r.run()
	// White-box tamper: pretend the checker saw one extra completion.
	// Both the conservation law and the exact Little identity must trip.
	r.c.completed++
	v := r.c.Finalize(r.eng.Now())
	if !hasLaw(v, "task-conservation") {
		t.Errorf("tampered counters not caught by task-conservation: %v", v)
	}
	if err := r.c.Err(); err == nil || !strings.Contains(err.Error(), "task-conservation") {
		t.Errorf("Err() = %v, want task-conservation detail", err)
	}
}

func TestDetectsTamperedIntegral(t *testing.T) {
	r := newRig(t, 2, 50, Options{})
	r.run()
	r.c.jobNanoSecs += 12345 // corrupt the area under N(t)
	if v := r.c.Finalize(r.eng.Now()); !hasLaw(v, "little-exact") {
		t.Errorf("corrupted integral not caught: %v", v)
	}
}

// TestLossSplitsHold: a real mid-run crash under each orphan policy —
// with a ledger wired the way core wires the fault injector's — leaves
// every failure-aware law intact: the split Little integral, the lost
// counters, the aborted-task conservation, and the down-time-excluded
// energy envelope.
func TestLossSplitsHold(t *testing.T) {
	for _, policy := range []sched.OrphanPolicy{sched.OrphanRequeue, sched.OrphanDrop} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			r := newRigPolicy(t, 2, 400, Options{}, policy)
			// The checker cross-checks its loss count against this
			// stand-in ledger, fed exactly like the injector's.
			var ledger int64
			r.c.opts.LostJobsLedger = func() int64 { return ledger }
			r.s.OnJobLost(func(_ *job.Job, _ sched.LostReason) { ledger++ })
			r.eng.Schedule(100*simtime.Millisecond, func() {
				r.s.ServersCrashed(r.farm[:1])
			})
			r.eng.Schedule(300*simtime.Millisecond, func() {
				r.s.ServersRecovered(r.farm[:1])
			})
			r.run()
			if v := r.c.Finalize(r.eng.Now()); len(v) != 0 {
				t.Fatalf("faulted run reported violations: %v", v)
			}
			if policy == sched.OrphanDrop && r.c.lost == 0 {
				t.Skip("no job was in flight at the crash; timing drifted")
			}
		})
	}
}

// TestDetectsTamperedLostCount: corrupting the loss counter trips both
// the conservation law and the ledger cross-check.
func TestDetectsTamperedLostCount(t *testing.T) {
	r := newRig(t, 2, 50, Options{})
	r.run()
	r.c.lost++
	r.c.sumLostNs += 777 // a phantom partial sojourn
	v := r.c.Finalize(r.eng.Now())
	if !hasLaw(v, "task-conservation") {
		t.Errorf("tampered lost count not caught by task-conservation: %v", v)
	}
	if !hasLaw(v, "lost-ledger") {
		t.Errorf("loss with no ledger not caught by lost-ledger: %v", v)
	}
	if !hasLaw(v, "little-exact") {
		t.Errorf("phantom lost partial not caught by the split integral: %v", v)
	}
}

// TestDetectsLedgerMismatch: a ledger that disagrees with the checker's
// observations trips lost-ledger.
func TestDetectsLedgerMismatch(t *testing.T) {
	r := newRig(t, 2, 50, Options{LostJobsLedger: func() int64 { return 5 }})
	r.run()
	if v := r.c.Finalize(r.eng.Now()); !hasLaw(v, "lost-ledger") {
		t.Errorf("ledger mismatch not caught: %v", v)
	}
}

// TestDetectsBareSubmit: a task handed straight to a server, past the
// scheduler's commitment, leaves the server holding more pending tasks
// than were committed to it, so placement's load signal undercounts it.
func TestDetectsBareSubmit(t *testing.T) {
	r := newRig(t, 4, 200, Options{})
	r.eng.Schedule(10*simtime.Millisecond, func() {
		r.farm[0].Submit(job.Single(9999, r.eng.Now(), simtime.Second).Tasks[0])
	})
	r.run()
	if v := r.c.Finalize(r.eng.Now()); !hasLaw(v, "pending-within-commitment") {
		t.Errorf("bare submit not caught: %v", v)
	}
}

func TestDetectsBackwardFinalize(t *testing.T) {
	r := newRig(t, 1, 20, Options{})
	r.run()
	if v := r.c.Finalize(r.eng.Now() - simtime.Second); !hasLaw(v, "monotonic-time") {
		t.Errorf("backward finalize not caught: %v", v)
	}
}

func TestVerifyTotalsDetectsMismatch(t *testing.T) {
	r := newRig(t, 2, 30, Options{})
	r.run()
	end := r.eng.Now()
	r.c.VerifyTotals(ReportedTotals{
		End:           end,
		ServerEnergyJ: 1, CPUEnergyJ: 1, // bogus
		Residency: map[string]float64{"Active": 0.4}, // doesn't sum to 1
	})
	v := r.c.Violations()
	if !hasLaw(v, "reported-totals") {
		t.Fatalf("bogus totals not caught: %v", v)
	}
	n := 0
	for _, x := range v {
		if x.Law == "reported-totals" {
			n++
		}
	}
	if n < 3 { // cpu, server-total, residency at minimum
		t.Errorf("want >=3 reported-totals violations, got %d: %v", n, v)
	}
}

func TestViolationCapSuppresses(t *testing.T) {
	r := newRig(t, 1, 1, Options{})
	for i := 0; i < maxViolations+7; i++ {
		r.c.report("test-law", "synthetic %d", i)
	}
	if len(r.c.Violations()) != maxViolations {
		t.Fatalf("recorded %d violations, want cap %d", len(r.c.Violations()), maxViolations)
	}
	if r.c.suppressed != 7 {
		t.Fatalf("suppressed %d, want 7", r.c.suppressed)
	}
	if err := r.c.Err(); err == nil || !strings.Contains(err.Error(), "+7 suppressed") {
		t.Errorf("Err() = %v, want suppressed note", err)
	}
}

func TestCloseRel(t *testing.T) {
	cases := []struct {
		a, b float64
		want bool
	}{
		{0, 0, true},
		{1, 1 + 1e-12, true},
		{1, 1 + 1e-6, false},
		{1e12, 1e12 * (1 + 1e-10), true},
		{-5, 5, false},
	}
	for _, tc := range cases {
		if got := closeRel(tc.a, tc.b, RelTol); got != tc.want {
			t.Errorf("closeRel(%g, %g) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func hasLaw(vs []Violation, law string) bool {
	for _, v := range vs {
		if v.Law == law {
			return true
		}
	}
	return false
}
