package scenario

import (
	"fmt"
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/runner"
)

// shortAxes is the -short matrix: every topology family (plus
// server-only), every comm mode, a placer cross-section including the
// network-aware policy, bursty and memoryless arrivals, and single- and
// multi-task job shapes. The valid cross product exceeds 100 scenarios
// — the suite's floor.
func shortAxes() Axes {
	return Axes{
		Topologies: []TopologySpec{
			{Kind: TopoNone},
			{Kind: TopoStar, A: 8},
			{Kind: TopoFatTree, A: 4},
			{Kind: TopoBCube, A: 2, B: 1},
			{Kind: TopoCamCube, A: 2, B: 2, C: 2},
			{Kind: TopoFlatButterfly, A: 2, B: 2, C: 2},
		},
		Comms:   []core.CommMode{core.CommNone, core.CommFlow, core.CommPacket},
		Placers: []PlacerSpec{{Kind: PlLeastLoaded}, {Kind: PlPackFirst}, {Kind: PlNetworkAware}},
		Arrivals: []ArrivalSpec{
			{Kind: ArrPoisson, Rho: 0.3},
			{Kind: ArrMMPP, Rho: 0.6, BurstRatio: 4},
		},
		Factories: []FactorySpec{
			{Kind: FacSingle, Service: SvcWebSearch},
			{Kind: FacScatterGather, Service: SvcWikipedia, Width: 2, EdgeBytes: 16 << 10},
		},
		Horizons: []Horizon{{MaxJobs: 120}},
	}
}

// TestScenarioMatrix executes the full -short matrix — every scenario
// with the invariant checker attached — over the campaign runner's
// worker pool (race-clean: each run owns its engine and rng streams).
// Any conservation-law violation in any scenario fails the suite.
func TestScenarioMatrix(t *testing.T) {
	base := Scenario{Seed: 41, Servers: 8, DelayTimerSec: 0.1}
	scenarios := shortAxes().Expand(base)
	if len(scenarios) < 100 {
		t.Fatalf("matrix expanded to %d scenarios, want >= 100", len(scenarios))
	}
	names := make(map[string]bool)
	runs := make([]runner.Run[Result], len(scenarios))
	for i, s := range scenarios {
		s := s
		names[s.Name()] = true
		runs[i] = runner.Run[Result]{
			Key: s.Name(),
			// The scenario carries its own seed; the runner's derived
			// seed is unused so the run stays a pure function of s.
			Do: func(uint64) (Result, error) { return s.Run() },
		}
	}
	if len(names) < 100 {
		t.Fatalf("only %d distinct scenario names across %d scenarios", len(names), len(scenarios))
	}
	results, err := runner.Map(runner.Options{}, base.Seed, runs)
	if err != nil {
		t.Fatal(err)
	}
	completed := int64(0)
	for i, r := range results {
		if len(r.Violations) != 0 {
			t.Errorf("%s: %v", scenarios[i].Name(), r.Violations)
		}
		if r.Results == nil {
			t.Fatalf("%s: no results", scenarios[i].Name())
		}
		completed += r.Results.JobsCompleted
		if r.Results.JobsCompleted != r.Results.JobsGenerated {
			// MaxJobs horizons drain fully: generation stops, queues empty.
			t.Errorf("%s: completed %d of %d generated", scenarios[i].Name(),
				r.Results.JobsCompleted, r.Results.JobsGenerated)
		}
	}
	if completed == 0 {
		t.Fatal("matrix completed zero jobs")
	}
	t.Logf("matrix: %d scenarios, %d jobs, zero violations", len(scenarios), completed)
}

// TestLeastLoadedAcrossFarmSizes sweeps node count through the servers
// axis under exact least-loaded placement, checked: every law holds at
// each size, and every job drains.
func TestLeastLoadedAcrossFarmSizes(t *testing.T) {
	base := Scenario{
		Seed:           41,
		DelayTimerSec:  0.001,
		Placer:         PlacerSpec{Kind: PlLeastLoaded},
		Arrival:        ArrivalSpec{Kind: ArrPoisson, Rho: 0.2},
		Factory:        FactorySpec{Kind: FacSingle, Service: SvcWebSearch},
		MaxJobs:        3000,
		SwitchSleepSec: -1,
	}
	scenarios := Axes{Servers: []int{1024, 16384}}.Expand(base)
	if len(scenarios) != 2 {
		t.Fatalf("servers axis expanded to %d scenarios, want 2", len(scenarios))
	}
	for _, s := range scenarios {
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Violations) != 0 {
			t.Errorf("%s: %v", s.Name(), r.Violations)
		}
		if r.Results.JobsCompleted != s.MaxJobs {
			t.Errorf("%s: completed %d of %d jobs", s.Name(), r.Results.JobsCompleted, s.MaxJobs)
		}
	}
}

// TestRandomScenarios draws seeded scenarios from the full registry and
// runs each with checking on. Short mode draws 40 (the matrix suite
// already covers >100); full mode draws 150.
func TestRandomScenarios(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 40
	}
	runs := make([]runner.Run[Result], n)
	kinds := make(map[string]bool)
	for i := 0; i < n; i++ {
		s := Random(uint64(1000 + i))
		if err := s.Validate(); err != nil {
			t.Fatalf("Random(%d) produced an invalid scenario: %v", 1000+i, err)
		}
		kinds[fmt.Sprintf("%v/%v/%v/%v", s.Topology.Kind, s.Comm, s.Placer.Kind, s.Arrival.Kind)] = true
		runs[i] = runner.Run[Result]{
			Key: s.Name(),
			Do:  func(uint64) (Result, error) { return s.Run() },
		}
	}
	// The generator must actually roam the registry, not collapse onto
	// a corner of it.
	if len(kinds) < 12 {
		t.Errorf("only %d distinct (topo, comm, placer, arrival) combinations in %d draws", len(kinds), n)
	}
	results, err := runner.Map(runner.Options{}, 1, runs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if len(r.Violations) != 0 {
			t.Errorf("seed %d (%s): %v", 1000+i, Random(uint64(1000+i)).Name(), r.Violations)
		}
	}
}

// TestRandomScenarioDeterminism: the same seed must yield the same
// scenario and the same run, bit for bit.
func TestRandomScenarioDeterminism(t *testing.T) {
	a, b := Random(7), Random(7)
	if a != b {
		t.Fatalf("Random(7) differs across calls:\n%+v\n%+v", a, b)
	}
	ra, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra.Results.JobsCompleted != rb.Results.JobsCompleted ||
		ra.Results.ServerEnergyJ != rb.Results.ServerEnergyJ ||
		ra.Results.End != rb.Results.End {
		t.Fatalf("same scenario diverged: %v vs %v", ra.Results, rb.Results)
	}
}

// TestExpandClampsServers: a farm-size axis larger than a topology's
// host count clamps instead of dropping the combination, and two axis
// values that clamp onto the same farm dedupe to one scenario.
func TestExpandClampsServers(t *testing.T) {
	axes := Axes{
		Topologies: []TopologySpec{{Kind: TopoStar, A: 4}},
		Servers:    []int{16, 32},
	}
	out := axes.Expand(Scenario{Seed: 1, MaxJobs: 10, Arrival: ArrivalSpec{Kind: ArrPoisson, Rho: 0.2}})
	if len(out) != 1 {
		t.Fatalf("expanded to %d scenarios, want 1 (both sizes clamp to the same farm)", len(out))
	}
	if out[0].Servers != 4 {
		t.Fatalf("servers = %d, want clamped to 4 hosts", out[0].Servers)
	}
}

// TestValidateRejectsIllegalCompositions pins the validity rules the
// expander and fuzzer rely on. An enum value outside its name table is
// one: it has no file form, and a service or profile off the table used
// to run as websearch or 4core.
func TestValidateRejectsIllegalCompositions(t *testing.T) {
	ok := Scenario{Seed: 1, Servers: 2, MaxJobs: 10, Arrival: ArrivalSpec{Kind: ArrPoisson, Rho: 0.3}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("baseline scenario invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"comm-without-topology", func(s *Scenario) { s.Comm = core.CommFlow }},
		{"netaware-without-topology", func(s *Scenario) { s.Placer.Kind = PlNetworkAware }},
		{"no-horizon", func(s *Scenario) { s.MaxJobs = 0 }},
		{"dvfs-without-duration", func(s *Scenario) { s.DVFS = true }},
		{"zero-servers", func(s *Scenario) { s.Servers = 0 }},
		{"rho-out-of-range", func(s *Scenario) { s.Arrival.Rho = 0 }},
		{"servers-exceed-hosts", func(s *Scenario) {
			s.Topology = TopologySpec{Kind: TopoStar, A: 2}
			s.Servers = 5
		}},
		{"topology-kind", func(s *Scenario) { s.Topology.Kind = 9 }},
		{"comm", func(s *Scenario) { s.Comm = 9 }},
		{"net-model", func(s *Scenario) { s.NetModel = 9 }},
		{"profile", func(s *Scenario) { s.Profile = 9 }},
		{"queue", func(s *Scenario) { s.Queue = 9 }},
		{"placer-kind", func(s *Scenario) { s.Placer.Kind = 9 }},
		{"arrival-kind", func(s *Scenario) { s.Arrival.Kind = 9 }},
		{"factory-kind", func(s *Scenario) { s.Factory.Kind = 9 }},
		{"service", func(s *Scenario) { s.Factory.Service = 9 }},
		{"orphans", func(s *Scenario) { s.Faults.Orphans = 9 }},
		{"negative-profile", func(s *Scenario) { s.Profile = -1 }},
	}
	for _, tc := range cases {
		s := ok
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an illegal scenario", tc.name)
		}
	}
}
