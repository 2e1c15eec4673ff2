package scenario

import (
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/fault"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
)

// faultAxes is the failure matrix: every topology family crossed with
// both comm modes and a fault cross-section — crash-only under both
// orphan policies, crash+flap, and crash+flap+switch-death — so the
// sweep exercises every fault class against every transfer model.
func faultAxes() Axes {
	return Axes{
		Topologies: []TopologySpec{
			{Kind: TopoNone},
			{Kind: TopoStar, A: 8},
			{Kind: TopoFatTree, A: 4},
			{Kind: TopoBCube, A: 2, B: 1},
			{Kind: TopoCamCube, A: 2, B: 2, C: 2},
			{Kind: TopoFlatButterfly, A: 2, B: 2, C: 2},
		},
		Comms:   []core.CommMode{core.CommFlow, core.CommPacket, core.CommNone},
		Placers: []PlacerSpec{{Kind: PlLeastLoaded}, {Kind: PlPackFirst}},
		Arrivals: []ArrivalSpec{
			{Kind: ArrPoisson, Rho: 0.4},
		},
		Factories: []FactorySpec{
			{Kind: FacScatterGather, Service: SvcWikipedia, Width: 2, EdgeBytes: 16 << 10},
		},
		Horizons: []Horizon{{MaxJobs: 100}},
		Faults: []fault.Spec{
			{ServerCrashes: 2, ServerDownSec: 0.05, Orphans: sched.OrphanRequeue},
			{ServerCrashes: 2, ServerDownSec: 0.05, Orphans: sched.OrphanDrop},
			{ServerCrashes: 1, ServerDownSec: 0.05, LinkFlaps: 2, LinkDownSec: 0.03, Orphans: sched.OrphanRequeue},
			{ServerCrashes: 1, ServerDownSec: 0.05, LinkFlaps: 1, LinkDownSec: 0.03,
				SwitchKills: 1, SwitchDownSec: 0.05, Orphans: sched.OrphanDrop},
		},
	}
}

// TestScenarioMatrixWithFaults is the acceptance sweep: the full valid
// cross product of topologies × comm modes × placers × fault specs runs
// through the campaign pool with the invariant checker attached. Every
// failure-aware law — lost-work conservation, the ledger cross-check,
// the crash-split Little integral, down-time-excluded energy closure —
// must hold in every scenario, and the sweep must actually exercise
// failures (crashes applied, and jobs lost under the drop policy).
func TestScenarioMatrixWithFaults(t *testing.T) {
	base := Scenario{Seed: 73, Servers: 8, DelayTimerSec: 0.1}
	scenarios := faultAxes().Expand(base)
	if len(scenarios) < 60 {
		t.Fatalf("fault matrix expanded to %d scenarios, want >= 60", len(scenarios))
	}
	runs := make([]runner.Run[Result], len(scenarios))
	for i, s := range scenarios {
		s := s
		runs[i] = runner.Run[Result]{
			Key: s.Name(),
			Do:  func(uint64) (Result, error) { return s.Run() },
		}
	}
	results, err := runner.Map(runner.Options{}, base.Seed, runs)
	if err != nil {
		t.Fatal(err)
	}
	var crashes, lost, orphaned, linkCuts, switchFails, completed int64
	for i, r := range results {
		if len(r.Violations) != 0 {
			t.Errorf("%s: %v", scenarios[i].Name(), r.Violations)
		}
		if r.Results == nil {
			t.Fatalf("%s: no results", scenarios[i].Name())
		}
		res := r.Results
		completed += res.JobsCompleted
		if res.Faults == nil {
			t.Fatalf("%s: faulted scenario returned no ledger", scenarios[i].Name())
		}
		crashes += res.Faults.ServerCrashes
		lost += res.JobsLost
		orphaned += res.TasksAborted
		linkCuts += res.Faults.LinkCuts
		switchFails += res.Faults.SwitchFails
		if res.JobsCompleted+res.JobsLost != res.JobsGenerated {
			// MaxJobs horizons drain fully even under failures: every
			// generated job either completes or is accounted lost.
			t.Errorf("%s: completed %d + lost %d != generated %d", scenarios[i].Name(),
				res.JobsCompleted, res.JobsLost, res.JobsGenerated)
		}
	}
	if crashes == 0 || orphaned == 0 {
		t.Errorf("sweep applied %d crashes orphaning %d tasks; the fault axis did nothing", crashes, orphaned)
	}
	if lost == 0 {
		t.Error("no job was lost across the drop-policy scenarios")
	}
	if linkCuts == 0 || switchFails == 0 {
		t.Errorf("network faults did not land: %d link cuts, %d switch kills", linkCuts, switchFails)
	}
	if completed == 0 {
		t.Fatal("fault matrix completed zero jobs")
	}
	t.Logf("fault matrix: %d scenarios, %d jobs completed, %d lost, %d crashes, %d link cuts, %d switch kills, zero violations",
		len(scenarios), completed, lost, crashes, linkCuts, switchFails)
}
