package scenario

import (
	"math"
	"sort"
	"strings"
	"testing"

	"holdcsim/internal/core"
)

// TestPresetLookup: name-based access used by cmd/scenario.
func TestPresetLookup(t *testing.T) {
	s, err := Preset("fig5-delaytimer")
	if err != nil || s.Servers != 8 {
		t.Fatalf("Preset lookup: %+v, %v", s, err)
	}
	if _, err := Preset("fig99"); err == nil {
		t.Error("unknown preset accepted")
	}
	names := PresetNames()
	if len(names) != 10 || !sort.StringsAreSorted(names) {
		t.Errorf("PresetNames = %v", names)
	}
}

// TestArrivalProcessPaths runs one tiny scenario per arrival kind —
// including the new trace-file kind replaying the checked-in fixture —
// through the full invariant-checked path. This is the in-package half
// of the tentpole's acceptance: an externally recorded trace rides the
// exact deterministic path the synthetic ones use, twice, identically.
func TestArrivalProcessPaths(t *testing.T) {
	base := Scenario{Seed: 3, Servers: 4, DelayTimerSec: 0.1, MaxJobs: 60}
	arrivals := []ArrivalSpec{
		{Kind: ArrPoisson, Rho: 0.4},
		{Kind: ArrMMPP, Rho: 0.4, BurstRatio: 3},
		{Kind: ArrTraceWiki, Rho: 0.4, TraceSec: 2},
		{Kind: ArrTraceNLANR, Rho: 0.4, TraceSec: 2},
		{Kind: ArrTraceFile, Rho: 0.4, TraceFile: "testdata/arrivals.trace"},
	}
	for _, a := range arrivals {
		s := base
		s.Arrival = a
		res, err := s.Run()
		if err != nil {
			t.Errorf("%s: %v", a, err)
			continue
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: %v", a, res.Violations)
		}
		if res.Results.JobsCompleted == 0 {
			t.Errorf("%s completed zero jobs", a)
		}
		// Determinism: the replay is a pure function of the scenario
		// value (plus, for trace-file, the file bytes).
		res2, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res2.Results.End != res.Results.End ||
			res2.Results.ServerEnergyJ != res.Results.ServerEnergyJ ||
			res2.Results.JobsCompleted != res.Results.JobsCompleted {
			t.Errorf("%s: two runs of the same scenario diverged", a)
		}
	}
}

// TestArrivalProcessErrors: the file-loading and composition error
// paths fail at Build, not panic at run time.
func TestArrivalProcessErrors(t *testing.T) {
	base := Scenario{Seed: 3, Servers: 2, DelayTimerSec: -1, MaxJobs: 10}
	cases := []struct {
		name string
		arr  ArrivalSpec
	}{
		{"missing-file", ArrivalSpec{Kind: ArrTraceFile, Rho: 0.3, TraceFile: "testdata/absent.trace"}},
		{"not-a-trace", ArrivalSpec{Kind: ArrTraceFile, Rho: 0.3, TraceFile: "testdata/commented.json"}},
		{"mmpp-ratio", ArrivalSpec{Kind: ArrMMPP, Rho: 0.3, BurstRatio: 0.5}},
		// Validate cannot know a recorded trace's rate; rescaling it to
		// this one overflows, which panicked in trace.Scale.
		{"rescale-overflow", ArrivalSpec{Kind: ArrTraceFile, Rho: 5e-324, TraceFile: "testdata/arrivals.trace"}},
	}
	for _, tc := range cases {
		s := base
		s.Arrival = tc.arr
		if _, err := s.Build(); err == nil {
			t.Errorf("%s: Build succeeded", tc.name)
		}
	}
}

// TestValidateRejectsNonFinite: NaN slips through ordinary range
// comparisons, so every float field is swept explicitly — external
// input (or a buggy generator) cannot smuggle a non-finite value into
// a run.
func TestValidateRejectsNonFinite(t *testing.T) {
	ok := Scenario{Seed: 1, Servers: 2, MaxJobs: 10, Arrival: ArrivalSpec{Kind: ArrPoisson, Rho: 0.3}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		mutations := []struct {
			name string
			mut  func(*Scenario)
		}{
			{"rho", func(s *Scenario) { s.Arrival.Rho = bad }},
			{"burstRatio", func(s *Scenario) { s.Arrival.BurstRatio = bad }},
			{"traceSec", func(s *Scenario) { s.Arrival.TraceSec = bad }},
			{"delayTimerSec", func(s *Scenario) { s.DelayTimerSec = bad }},
			{"durationSec", func(s *Scenario) { s.DurationSec = bad }},
			{"switchSleepSec", func(s *Scenario) { s.SwitchSleepSec = bad }},
			{"tauSec", func(s *Scenario) { s.Placer.TauSec = bad }},
			{"rateBps", func(s *Scenario) { s.Topology.RateBps = bad }},
		}
		for _, m := range mutations {
			s := ok
			m.mut(&s)
			if err := s.Validate(); err == nil {
				t.Errorf("Validate accepted %s = %g", m.name, bad)
			}
		}
	}
}

// TestLabelDeadFieldSuffixes: fields a kind ignores still distinguish
// scenario values in labels (the parenthesized tails), and live fields
// render in the pretty prefix.
func TestLabelDeadFieldSuffixes(t *testing.T) {
	// Topology: dead shape params and non-default link rate.
	plain := TopologySpec{Kind: TopoStar, A: 8}
	deviant := TopologySpec{Kind: TopoStar, A: 8, B: 3}
	if plain.String() == deviant.String() {
		t.Errorf("star with dead B collides: %s", plain)
	}
	if !strings.Contains(deviant.String(), "(8,3,0)") {
		t.Errorf("dead-shape tail missing: %s", deviant)
	}
	rated := TopologySpec{Kind: TopoFatTree, A: 4, RateBps: 1e9}
	if !strings.Contains(rated.String(), "@1e+09") {
		t.Errorf("link rate missing from %s", rated)
	}
	if s := (TopologySpec{Kind: TopoNone, A: 1}).String(); s == "none" {
		t.Errorf("none with dead params collides: %s", s)
	}
	for _, topo := range []TopologySpec{
		{Kind: TopoBCube, A: 2, B: 1, C: 9},
		{Kind: TopoCamCube, A: 2, B: 2, C: 2},
		{Kind: TopoFlatButterfly, A: 2, B: 2, C: 2},
	} {
		if topo.String() == (TopologySpec{Kind: topo.Kind, A: topo.A, B: topo.B}).String() &&
			topo.C != 0 && topo.Kind == TopoBCube {
			t.Errorf("bcube dead C collides: %s", topo)
		}
	}

	// Arrival: dead burst/trace/file fields.
	a := ArrivalSpec{Kind: ArrPoisson, Rho: 0.3}
	b := ArrivalSpec{Kind: ArrPoisson, Rho: 0.3, BurstRatio: 4}
	c := ArrivalSpec{Kind: ArrPoisson, Rho: 0.3, TraceSec: 2}
	d := ArrivalSpec{Kind: ArrMMPP, Rho: 0.3, BurstRatio: 4, TraceSec: 2}
	e := ArrivalSpec{Kind: ArrMMPP, Rho: 0.3, BurstRatio: 4}
	labels := map[string]bool{}
	for _, spec := range []ArrivalSpec{a, b, c, d, e} {
		if labels[spec.String()] {
			t.Errorf("arrival label collision at %s", spec)
		}
		labels[spec.String()] = true
	}

	// Factory: dead width/layers/edge bytes.
	f1 := FactorySpec{Kind: FacSingle, Service: SvcWebSearch}
	f2 := FactorySpec{Kind: FacSingle, Service: SvcWebSearch, Width: 2}
	f3 := FactorySpec{Kind: FacTwoTier, Service: SvcWebSearch, EdgeBytes: 1024, Layers: 1}
	f4 := FactorySpec{Kind: FacTwoTier, Service: SvcWebSearch, EdgeBytes: 1024}
	f5 := FactorySpec{Kind: FacScatterGather, Service: SvcWebSearch, Width: 2, EdgeBytes: 1024, Layers: 3}
	for _, pair := range [][2]FactorySpec{{f1, f2}, {f3, f4}} {
		if pair[0].String() == pair[1].String() {
			t.Errorf("factory dead-field collision: %s", pair[0])
		}
	}
	if !strings.Contains(f5.String(), "(w2-l3-e1024)") {
		t.Errorf("scatter dead-layers tail missing: %s", f5)
	}

	// Placer: tau renders for the policies that consume it, tails for
	// the ones that don't.
	if s := (PlacerSpec{Kind: PlAdaptivePool, TauSec: 0.2}).String(); s != "adaptive-t0.2" {
		t.Errorf("adaptive tau label: %s", s)
	}
	if s := (PlacerSpec{Kind: PlRoundRobin, TauSec: 0.2}).String(); s != "roundrobin(t0.2)" {
		t.Errorf("dead tau label: %s", s)
	}
	if s := (PlacerSpec{Kind: PlRoundRobin}).String(); s != "roundrobin" {
		t.Errorf("plain placer label: %s", s)
	}

	// Scenario flags and fault tail.
	s := Scenario{Seed: 1, Servers: 2, MaxJobs: 10, Arrival: ArrivalSpec{Kind: ArrPoisson, Rho: 0.3},
		Heterogeneous: true, GlobalQueue: true, DVFS: true, CheckStationary: true}
	label := s.String()
	for _, flag := range []string{"/het", "/gq", "/dvfs", "/stat"} {
		if !strings.Contains(label, flag) {
			t.Errorf("label %s missing flag %s", label, flag)
		}
	}
	if plainLabel := (Scenario{Seed: 1, Servers: 2, MaxJobs: 10,
		Arrival: ArrivalSpec{Kind: ArrPoisson, Rho: 0.3}}).String(); plainLabel == label {
		t.Error("flags do not distinguish labels")
	}
}

// TestEncodeRejects: the encoder refuses what the decoder would — an
// invalid scenario has no file form, and enum values off the registry
// error instead of serializing junk.
func TestEncodeRejects(t *testing.T) {
	if _, err := Encode(Scenario{}); err == nil {
		t.Error("Encode accepted the zero scenario (no horizon, zero servers)")
	}
	if _, err := EncodeMatrix(Matrix{}); err == nil {
		t.Error("EncodeMatrix accepted a zero-expansion matrix")
	}
	if _, err := TopoKind(99).MarshalText(); err == nil {
		t.Error("unknown topo kind marshaled")
	}
	if _, err := ArrivalKind(99).MarshalText(); err == nil {
		t.Error("unknown arrival kind marshaled")
	}
	if _, err := FactoryKind(99).MarshalText(); err == nil {
		t.Error("unknown factory kind marshaled")
	}
	if _, err := ServiceKind(99).MarshalText(); err == nil {
		t.Error("unknown service kind marshaled")
	}
	if _, err := PlacerKind(99).MarshalText(); err == nil {
		t.Error("unknown placer kind marshaled")
	}
	if _, err := ProfileKind(99).MarshalText(); err == nil {
		t.Error("unknown profile marshaled")
	}
	if s := ProfileKind(99).String(); s == ProfFourCore.String() {
		t.Errorf("unknown profile labeled %q, 4core's label", s)
	}
	var tk TopoKind
	if err := tk.UnmarshalText([]byte("torus")); err == nil {
		t.Error("unknown topo name unmarshaled")
	}
	// Comm without topology must not encode either.
	bad := Scenario{Seed: 1, Servers: 2, MaxJobs: 10,
		Arrival: ArrivalSpec{Kind: ArrPoisson, Rho: 0.3}, Comm: core.CommFlow}
	if _, err := Encode(bad); err == nil {
		t.Error("Encode accepted comm without topology")
	}
}
