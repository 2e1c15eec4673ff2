package fault_test

import (
	"reflect"
	"testing"

	"holdcsim/internal/fault"
	"holdcsim/internal/rng"
	"holdcsim/internal/scenario"
	"holdcsim/internal/sched"
	"holdcsim/internal/simtime"
)

// TestTimelineDeterministic: the timeline is a pure function of (seed,
// spec, farm shape) — identical across calls, time-ordered, and with
// every down event paired with a later up event on the same target.
func TestTimelineDeterministic(t *testing.T) {
	timeline := func(spec fault.Spec, seed uint64, servers, links, switches int) fault.Timeline {
		tl, err := spec.TimelineFor(rng.New(seed).Split("faults"), 10, fault.PointTopo(servers, links, switches))
		if err != nil {
			t.Fatal(err)
		}
		return tl
	}
	spec := fault.Spec{
		ServerCrashes: 4, ServerDownSec: 0.3,
		LinkFlaps: 3, LinkDownSec: 0.1,
		SwitchKills: 2, SwitchDownSec: 0.2,
	}
	a := timeline(spec, 7, 8, 12, 3)
	b := timeline(spec, 7, 8, 12, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different timelines")
	}
	if len(a.Events) != 2*(4+3+2) {
		t.Fatalf("events = %d, want %d", len(a.Events), 2*(4+3+2))
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatalf("timeline out of order at %d: %v after %v", i, a.Events[i].At, a.Events[i-1].At)
		}
	}
	downs := map[fault.Kind]int{}
	for _, ev := range a.Events {
		downs[ev.Kind]++
	}
	if downs[fault.ServerCrash] != 4 || downs[fault.ServerRecover] != 4 ||
		downs[fault.LinkCut] != 3 || downs[fault.LinkRestore] != 3 ||
		downs[fault.SwitchFail] != 2 || downs[fault.SwitchRestore] != 2 {
		t.Fatalf("event mix %v", downs)
	}
	// A different seed moves the schedule.
	c := timeline(spec, 8, 8, 12, 3)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical timelines")
	}
	// Zero target populations skip their classes.
	d := timeline(spec, 7, 8, 0, 0)
	for _, ev := range d.Events {
		if ev.Kind != fault.ServerCrash && ev.Kind != fault.ServerRecover {
			t.Fatalf("network event %v drawn with no network", ev.Kind)
		}
	}
}

// TestSpecValidate rejects malformed specs and accepts the zero value.
func TestSpecValidate(t *testing.T) {
	if err := (fault.Spec{}).Validate(); err != nil {
		t.Fatalf("zero spec invalid: %v", err)
	}
	bad := []fault.Spec{
		{ServerCrashes: -1},
		{LinkFlaps: -2},
		{SwitchKills: -1},
		{ServerDownSec: -0.5},
		{LinkDownSec: nan()},
		{HorizonSec: inf()},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, sp)
		}
	}
}

func nan() float64 { return float64(0) / zero }
func inf() float64 { return 1 / zero }

var zero float64 // defeats constant folding

// TestFaultedScenarioLedger runs a deterministic faulted scenario end to
// end and reconciles the injector's independent ledger with the run's
// reported results — and, implicitly via Scenario.Run, with every
// failure-aware invariant law.
func TestFaultedScenarioLedger(t *testing.T) {
	for _, policy := range []sched.OrphanPolicy{sched.OrphanRequeue, sched.OrphanDrop} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			s := scenario.Scenario{
				Seed:          5,
				Topology:      scenario.TopologySpec{Kind: scenario.TopoStar, A: 6},
				Comm:          0, // server-only traffic
				Servers:       6,
				DelayTimerSec: -1,
				Placer:        scenario.PlacerSpec{Kind: scenario.PlLeastLoaded},
				Arrival:       scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.6},
				Factory:       scenario.FactorySpec{Kind: scenario.FacSingle},
				DurationSec:   2,
				Faults: fault.Spec{
					ServerCrashes: 4,
					ServerDownSec: 0.5,
					Orphans:       policy,
				},
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != 0 {
				t.Fatalf("violations: %v", res.Violations)
			}
			r := res.Results
			if r.Faults == nil {
				t.Fatal("no fault ledger in results")
			}
			if r.Faults.ServerCrashes == 0 {
				t.Fatal("no crash was applied in 2s with 4 scheduled")
			}
			if got := r.Faults.JobsLost(); got != r.JobsLost {
				t.Errorf("ledger lost %d, results lost %d", got, r.JobsLost)
			}
			if policy == sched.OrphanRequeue && r.JobsLost != 0 {
				t.Errorf("requeue lost %d jobs", r.JobsLost)
			}
			if policy == sched.OrphanDrop && r.Faults.TasksOrphaned > 0 && r.JobsLost == 0 {
				t.Errorf("drop policy orphaned %d tasks but lost no jobs", r.Faults.TasksOrphaned)
			}
			if r.JobsCompleted+r.JobsLost > r.JobsGenerated {
				t.Errorf("completed %d + lost %d > generated %d", r.JobsCompleted, r.JobsLost, r.JobsGenerated)
			}
		})
	}
}

// TestGoldenFaultRun pins one faulted run exactly: same seed, same
// spec, byte-identical accounting across code versions. The literals
// are the recorded output of the fault timeline's first pinning; a
// change here means fault replay determinism broke (or the model
// intentionally changed — re-pin with the new figures and say why in
// the commit).
func TestGoldenFaultRun(t *testing.T) {
	s := scenario.Scenario{
		Seed:          99,
		Servers:       4,
		DelayTimerSec: -1,
		Placer:        scenario.PlacerSpec{Kind: scenario.PlLeastLoaded},
		Arrival:       scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.5},
		Factory:       scenario.FactorySpec{Kind: scenario.FacSingle},
		MaxJobs:       300,
		Faults: fault.Spec{
			ServerCrashes: 2,
			ServerDownSec: 0.2,
			Orphans:       sched.OrphanDrop,
		},
	}
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Results, b.Results
	if ra.JobsCompleted != rb.JobsCompleted || ra.JobsLost != rb.JobsLost ||
		ra.End != rb.End || ra.ServerEnergyJ != rb.ServerEnergyJ ||
		*ra.Faults != *rb.Faults {
		t.Fatalf("faulted replay diverged:\n%+v\n%+v", ra, rb)
	}
	if ra.JobsCompleted+ra.JobsLost != ra.JobsGenerated {
		t.Fatalf("drained MaxJobs run: completed %d + lost %d != generated %d",
			ra.JobsCompleted, ra.JobsLost, ra.JobsGenerated)
	}
	if ra.Faults.ServerCrashes != 2 || ra.Faults.ServerRecovers != 2 {
		t.Fatalf("ledger %+v, want 2 crashes + 2 recoveries applied", ra.Faults)
	}
}

// TestKindAndSpecStrings pins the enum renderings used in scenario
// names and logs.
func TestKindAndSpecStrings(t *testing.T) {
	want := map[fault.Kind]string{
		fault.ServerCrash:   "server-crash",
		fault.ServerRecover: "server-recover",
		fault.LinkCut:       "link-cut",
		fault.LinkRestore:   "link-restore",
		fault.SwitchFail:    "switch-fail",
		fault.SwitchRestore: "switch-restore",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := fault.Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind renders %q", got)
	}
	if got := (fault.Spec{}).String(); got != "nofault" {
		t.Errorf("zero spec renders %q", got)
	}
	sp := fault.Spec{ServerCrashes: 2, ServerDownSec: 0.5, LinkFlaps: 1, LinkDownSec: 0.03, Orphans: sched.OrphanDrop}
	if got := sp.String(); got != "f2c0.5-1l0.03-0s0-drop" {
		t.Errorf("spec renders %q", got)
	}
	// Specs differing only in duration must render differently.
	sp2 := sp
	sp2.ServerDownSec = 0.1
	if sp.String() == sp2.String() {
		t.Error("duration-only spec variants share an identifier")
	}
	// ... and only in draw horizon (the label is injective over specs).
	sp3 := sp
	sp3.HorizonSec = 2
	if got := sp3.String(); got == sp.String() {
		t.Errorf("horizon-only spec variant shares identifier %q", got)
	}
	// Empty-but-not-Zero specs keep a distinct identifier too.
	leftover := fault.Spec{ServerDownSec: 0.5, Orphans: sched.OrphanDrop}
	if leftover.Zero() || !leftover.Empty() {
		t.Error("Zero/Empty inconsistent for a parameter-only spec")
	}
	if got := leftover.String(); got == "nofault" {
		t.Error("parameter-only spec collapsed onto the zero label")
	}
	if !(fault.Spec{}).Zero() {
		t.Error("zero spec not Zero()")
	}
	if sp.Empty() {
		t.Error("Empty() inconsistent")
	}
}

// TestInjectorSkipsAndAccessors drives apply() through every skip path
// — out-of-range targets, already-failed targets, network events on a
// server-only farm — via a hand-built timeline, and checks the ledger
// arithmetic.
func TestInjectorSkipsAndAccessors(t *testing.T) {
	s := scenario.Scenario{
		Seed:          3,
		Servers:       2,
		DelayTimerSec: -1,
		Placer:        scenario.PlacerSpec{Kind: scenario.PlLeastLoaded},
		Arrival:       scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.3},
		Factory:       scenario.FactorySpec{Kind: scenario.FacSingle},
		MaxJobs:       20,
	}
	dc, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms := simtime.Millisecond
	tl := fault.Timeline{Events: []fault.Event{
		{At: 1 * ms, Kind: fault.ServerCrash, Target: 0},
		{At: 2 * ms, Kind: fault.ServerCrash, Target: 0},   // already down -> skip
		{At: 3 * ms, Kind: fault.ServerCrash, Target: 99},  // out of range -> skip
		{At: 4 * ms, Kind: fault.ServerRecover, Target: 1}, // up -> skip
		{At: 5 * ms, Kind: fault.ServerRecover, Target: 0},
		{At: 6 * ms, Kind: fault.LinkCut, Target: 0},       // no network -> skip
		{At: 7 * ms, Kind: fault.LinkRestore, Target: 0},   // no network -> skip
		{At: 8 * ms, Kind: fault.SwitchFail, Target: 0},    // no network -> skip
		{At: 9 * ms, Kind: fault.SwitchRestore, Target: 0}, // no network -> skip
	}}
	inj := fault.Attach(dc.Eng, tl, dc.Sched, dc.Servers, dc.Net, fault.AttachOpts{})
	if _, err := dc.Run(); err != nil {
		t.Fatal(err)
	}
	ld := inj.Ledger()
	if ld.ServerCrashes != 1 || ld.ServerRecovers != 1 {
		t.Errorf("ledger %+v, want 1 crash + 1 recover applied", ld)
	}
	if ld.Skipped != 7 {
		t.Errorf("skipped = %d, want 7", ld.Skipped)
	}
	if ld.Applied() != 2 {
		t.Errorf("Applied() = %d, want 2", ld.Applied())
	}
}

// TestInjectorNetworkSkips: link/switch events with out-of-range
// targets or already-state targets skip cleanly on a real network.
func TestInjectorNetworkSkips(t *testing.T) {
	s := scenario.Scenario{
		Seed:          4,
		Topology:      scenario.TopologySpec{Kind: scenario.TopoStar, A: 3},
		Servers:       3,
		DelayTimerSec: -1,
		Placer:        scenario.PlacerSpec{Kind: scenario.PlLeastLoaded},
		Arrival:       scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.3},
		Factory:       scenario.FactorySpec{Kind: scenario.FacSingle},
		MaxJobs:       20,
	}
	dc, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms := simtime.Millisecond
	tl := fault.Timeline{Events: []fault.Event{
		{At: 1 * ms, Kind: fault.LinkCut, Target: 0},
		{At: 2 * ms, Kind: fault.LinkCut, Target: 0}, // already down -> skip
		{At: 3 * ms, Kind: fault.LinkRestore, Target: 0},
		{At: 4 * ms, Kind: fault.LinkRestore, Target: 0}, // already up -> skip
		{At: 5 * ms, Kind: fault.LinkCut, Target: 999},   // out of range -> skip
		{At: 6 * ms, Kind: fault.SwitchFail, Target: 0},
		{At: 7 * ms, Kind: fault.SwitchFail, Target: 0}, // already dead -> skip
		{At: 8 * ms, Kind: fault.SwitchRestore, Target: 0},
		{At: 9 * ms, Kind: fault.SwitchRestore, Target: 99}, // out of range -> skip
	}}
	inj := fault.Attach(dc.Eng, tl, dc.Sched, dc.Servers, dc.Net, fault.AttachOpts{})
	if _, err := dc.Run(); err != nil {
		t.Fatal(err)
	}
	ld := inj.Ledger()
	if ld.LinkCuts != 1 || ld.LinkRestores != 1 || ld.SwitchFails != 1 || ld.SwitchRestores != 1 {
		t.Errorf("ledger %+v", ld)
	}
	if ld.Skipped != 5 {
		t.Errorf("skipped = %d, want 5", ld.Skipped)
	}
}

// TestOverlappingOutagesKeepFullDuration: a crash drawn while its
// target is already down is skipped — and so is its restore, so the
// earlier outage runs its full drawn duration instead of being
// truncated by the overlapping pair's earlier recovery.
func TestOverlappingOutagesKeepFullDuration(t *testing.T) {
	s := scenario.Scenario{
		Seed:          6,
		Servers:       2,
		DelayTimerSec: -1,
		Placer:        scenario.PlacerSpec{Kind: scenario.PlLeastLoaded},
		Arrival:       scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.3},
		Factory:       scenario.FactorySpec{Kind: scenario.FacSingle},
		MaxJobs:       10,
	}
	dc, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms := simtime.Millisecond
	tl := fault.Timeline{Events: []fault.Event{
		{At: 1 * ms, Kind: fault.ServerCrash, Target: 0, Pair: 0},   // applies; down until 11 ms
		{At: 5 * ms, Kind: fault.ServerCrash, Target: 0, Pair: 1},   // overlaps -> skip
		{At: 6 * ms, Kind: fault.ServerRecover, Target: 0, Pair: 1}, // its crash was skipped -> skip
		{At: 11 * ms, Kind: fault.ServerRecover, Target: 0, Pair: 0},
	}}
	inj := fault.Attach(dc.Eng, tl, dc.Sched, dc.Servers, dc.Net, fault.AttachOpts{})
	stillDown := false
	dc.Eng.Schedule(8*ms, func() { stillDown = dc.Servers[0].Failed() })
	recovered := false
	dc.Eng.Schedule(12*ms, func() { recovered = !dc.Servers[0].Failed() })
	if _, err := dc.Run(); err != nil {
		t.Fatal(err)
	}
	if !stillDown {
		t.Error("overlapping pair's recover truncated the first outage (server up at 8 ms)")
	}
	if !recovered {
		t.Error("server never recovered at the first pair's drawn instant")
	}
	ld := inj.Ledger()
	if ld.ServerCrashes != 1 || ld.ServerRecovers != 1 || ld.Skipped != 2 {
		t.Errorf("ledger %+v, want 1 crash, 1 recover, 2 skipped", ld)
	}
}
