package fault_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/fault"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/rng"
	"holdcsim/internal/scenario"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// starScenario is the shared small-farm harness of this file.
func starScenario(seed uint64, servers int) scenario.Scenario {
	return scenario.Scenario{
		Seed:          seed,
		Topology:      scenario.TopologySpec{Kind: scenario.TopoStar, A: servers},
		Servers:       servers,
		DelayTimerSec: -1,
		Placer:        scenario.PlacerSpec{Kind: scenario.PlLeastLoaded},
		Arrival:       scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.5},
		Factory:       scenario.FactorySpec{Kind: scenario.FacSingle},
		MaxJobs:       150,
	}
}

// TestRackBlast takes a whole star rack (every server plus the hub
// switch) down and back up, checking atomic membership, mid-outage
// state, and ledger arithmetic.
func TestRackBlast(t *testing.T) {
	s := starScenario(31, 6)
	dc, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	ms := simtime.Millisecond
	tl := fault.Timeline{Events: []fault.Event{
		{At: 50 * ms, Scope: fault.ScopeRack, Target: 0, Pair: 0},
		{At: 150 * ms, Scope: fault.ScopeRack, Up: true, Target: 0, Pair: 0},
		{At: 200 * ms, Scope: fault.ScopeRack, Target: 9, Pair: 1},           // no rack 9 -> skip
		{At: 210 * ms, Scope: fault.ScopeRack, Up: true, Target: 9, Pair: 1}, // skip
	}}
	topo := scopeTopo(t, s)
	inj := fault.Attach(dc.Eng, tl, dc.Sched, dc.Servers, dc.Net, fault.AttachOpts{Topo: topo})
	allDown, allUp := false, false
	dc.Eng.Schedule(100*ms, func() {
		allDown = true
		for _, srv := range dc.Servers {
			if !srv.Failed() {
				allDown = false
			}
		}
		allDown = allDown && dc.Net.Switches()[0].Failed()
	})
	dc.Eng.Schedule(180*ms, func() {
		allUp = true
		for _, srv := range dc.Servers {
			if srv.Failed() {
				allUp = false
			}
		}
		allUp = allUp && !dc.Net.Switches()[0].Failed()
	})
	if _, err := dc.Run(); err != nil {
		t.Fatal(err)
	}
	if !allDown {
		t.Error("rack blast did not take every member (6 servers + hub) down")
	}
	if !allUp {
		t.Error("rack restore did not bring every member back")
	}
	ld := inj.Ledger()
	if ld.ServerCrashes != 6 || ld.ServerRecovers != 6 || ld.SwitchFails != 1 || ld.SwitchRestores != 1 {
		t.Errorf("ledger %+v, want 6+6 server and 1+1 switch events", ld)
	}
	if err := inj.CheckScopes(true); err != nil {
		t.Errorf("CheckScopes after full restore: %v", err)
	}
}

// TestCheckScopesReportsPlants plants the two scope-law violations a
// model bug could leave and holds CheckScopes to report each: a server
// an outage owns brought back behind the injector's back, which a scan
// sees because a fault event touched that server since the last one,
// and a server crashed with no owning outage, which no fault event
// touched: the next scan sees the down count exceed the owned one, and
// the full walk at the end of a run names the server.
func TestCheckScopesReportsPlants(t *testing.T) {
	ms := simtime.Millisecond
	setup := func() (*core.DataCenter, *fault.Injector) {
		s := starScenario(31, 6)
		dc, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		tl := fault.Timeline{Events: []fault.Event{
			{At: 10 * ms, Scope: fault.ScopeServer, Target: 1, Pair: 0},
			{At: 100 * ms, Scope: fault.ScopeServer, Up: true, Target: 1, Pair: 0},
		}}
		inj := fault.Attach(dc.Eng, tl, dc.Sched, dc.Servers, dc.Net, fault.AttachOpts{Topo: scopeTopo(t, s)})
		if err := inj.CheckScopes(false); err != nil {
			t.Fatalf("CheckScopes before any fault: %v", err)
		}
		return dc, inj
	}

	dc, inj := setup()
	dc.Eng.RunUntil(20 * ms)
	dc.Sched.ServersRecovered([]*server.Server{dc.Servers[1]})
	err := inj.CheckScopes(false)
	if want := "server 1 owned-down by pair 0 but up"; err == nil || err.Error() != want {
		t.Errorf("scan after a touched server revived: %v, want %q", err, want)
	}

	dc, inj = setup()
	dc.Eng.RunUntil(20 * ms)
	dc.Sched.ServersCrashed([]*server.Server{dc.Servers[3]})
	err = inj.CheckScopes(false)
	if want := "2 servers down, 1 owned by an outage"; err == nil || err.Error() != want {
		t.Errorf("scan after an unowned crash: %v, want %q", err, want)
	}
	err = inj.CheckScopes(true)
	if want := "server 3 down without an owning outage"; err == nil || err.Error() != want {
		t.Errorf("full walk after an unowned crash: %v, want %q", err, want)
	}
}

// scopeTopo builds the fault.Topo a scenario's core.Build would derive
// (link count is irrelevant to scope resolution and left zero).
func scopeTopo(t *testing.T, s scenario.Scenario) *fault.Topo {
	t.Helper()
	g, err := s.Topology.Builder().Build()
	if err != nil {
		t.Fatal(err)
	}
	return fault.NewTopo(topology.NewScopeMap(g), s.Servers, 0, len(g.Switches()))
}

// render spells a timeline one "{at domain-down|up target pair}" entry
// per event, the domain words being the coverage feature names.
func render(tl fault.Timeline) string {
	var b strings.Builder
	for i, ev := range tl.Events {
		if i > 0 {
			b.WriteByte(' ')
		}
		kind := strings.TrimPrefix(modelcov.Name(modelcov.Fault(int(ev.Scope), ev.Up)), "fault/")
		fmt.Fprintf(&b, "{%v %s %d %d}", ev.At, kind, ev.Target, ev.Pair)
	}
	return b.String()
}

// TestTimelineForFrozenPointPrefix: for a spec of the server, link and
// switch classes only, TimelineFor draws the pinned schedule (those
// classes' draw order is frozen: goldens and bench pins ride on it);
// with blast-radius classes added, those draws keep their exact values
// and the blast draws append after them on the same stream.
func TestTimelineForFrozenPointPrefix(t *testing.T) {
	sp := fault.Spec{
		ServerCrashes: 3, ServerDownSec: 0.3,
		LinkFlaps: 2, LinkDownSec: 0.1,
		SwitchKills: 1, SwitchDownSec: 0.2,
	}
	topo := pointTopo(8, 12, 3)
	old, err := sp.TimelineFor(rng.New(7).Split("faults"), 10, topo)
	if err != nil {
		t.Fatal(err)
	}
	const frozen = "{651ms link-down 8 4} {737ms link-down 11 3} {793ms link-up 8 4} " +
		"{866ms link-up 11 3} {1.032s server-down 3 1} {1.331s server-up 3 1} " +
		"{1.375s switch-down 0 5} {1.482s switch-up 0 5} {5.347s server-down 0 0} " +
		"{5.728s server-up 0 0} {6.623s server-down 1 2} {7.032s server-up 1 2}"
	if got := render(old); got != frozen {
		t.Fatalf("point-only schedule moved:\n got %s\nwant %s", got, frozen)
	}

	// Adding blast classes must not disturb the first six pairs: events
	// pair-for-pair identical on the first 6 pairs.
	sp2 := sp
	sp2.RackKills = 2
	sp2.RackDownSec = 0.2
	topo2 := fault.FallbackTopo(8)
	topo2.Links, topo2.Switches = 12, 3 // same link and switch populations as old
	got2, err := sp2.TimelineFor(rng.New(7).Split("faults"), 10, topo2)
	if err != nil {
		t.Fatal(err)
	}
	byPair := func(tl fault.Timeline, pair int) []fault.Event {
		var out []fault.Event
		for _, ev := range tl.Events {
			if ev.Pair == pair {
				out = append(out, ev)
			}
		}
		return out
	}
	for pair := 0; pair < 6; pair++ {
		if !reflect.DeepEqual(byPair(old, pair), byPair(got2, pair)) {
			t.Errorf("pair %d moved when blast classes were added", pair)
		}
	}
	racks := 0
	for _, ev := range got2.Events {
		if !ev.Up && ev.Scope == fault.ScopeRack {
			racks++
		}
	}
	if racks != 2 {
		t.Errorf("drew %d rack blasts, want 2", racks)
	}
}

// TestRenewalTimeline: renewal draws are deterministic, every failure
// pairs with a later repair on the same component, and a single repair
// crew serializes completions (each repair ends after the previous one,
// a property unlimited crews do not have).
func TestRenewalTimeline(t *testing.T) {
	sp := fault.Spec{ServerMTTFSec: 1, ServerMTTRSec: 0.3, WeibullShape: 1.5, RepairCrews: 1}
	topo := pointTopo(4, 0, 0)
	a, err := sp.TimelineFor(rng.New(11).Split("faults"), 20, topo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sp.TimelineFor(rng.New(11).Split("faults"), 20, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("renewal timeline not deterministic")
	}
	if len(a.Events) == 0 {
		t.Fatal("no renewal events drawn over 20x MTTF horizon")
	}
	down := map[int]fault.Event{}
	ups := map[int]fault.Event{}
	for _, ev := range a.Events {
		switch {
		case ev.Scope != fault.ScopeServer:
			t.Fatalf("unexpected domain %v in a server renewal timeline", ev.Scope)
		case ev.Up:
			ups[ev.Pair] = ev
		default:
			down[ev.Pair] = ev
		}
	}
	if len(down) != len(ups) {
		t.Fatalf("%d downs, %d ups", len(down), len(ups))
	}
	var lastEnd simtime.Time
	for pair := 0; pair < len(down); pair++ {
		d, okD := down[pair]
		u, okU := ups[pair]
		if !okD || !okU {
			t.Fatalf("pair %d incomplete", pair)
		}
		if d.Target != u.Target || u.At <= d.At {
			t.Fatalf("pair %d malformed: down %+v up %+v", pair, d, u)
		}
		// One crew: repair completions are strictly ordered by pair
		// emission (each repair starts no earlier than the previous end).
		if u.At < lastEnd {
			t.Fatalf("pair %d repair ends at %v before previous end %v with 1 crew", pair, u.At, lastEnd)
		}
		lastEnd = u.At
	}

	// Renewal draws ride dedicated splits: adding a renewal class must
	// not move the server-class draws on the parent stream.
	sp2 := sp
	sp2.ServerCrashes = 2
	sp2.ServerDownSec = 0.2
	point := fault.Spec{ServerCrashes: 2, ServerDownSec: 0.2}
	tlPoint, err := point.TimelineFor(rng.New(11).Split("faults"), 20, pointTopo(4, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	tlBoth, err := sp2.TimelineFor(rng.New(11).Split("faults"), 20, topo)
	if err != nil {
		t.Fatal(err)
	}
	for pair := 0; pair < 2; pair++ {
		for _, want := range tlPoint.Events {
			if want.Pair != pair {
				continue
			}
			found := false
			for _, got := range tlBoth.Events {
				if got == want {
					found = true
				}
			}
			if !found {
				t.Errorf("point event %+v moved when renewal was enabled", want)
			}
		}
	}
}

// TestRenewalScenarioRun runs renewal + crew churn end to end under the
// invariant checker.
func TestRenewalScenarioRun(t *testing.T) {
	s := starScenario(41, 4)
	s.MaxJobs = 0
	s.DurationSec = 3
	s.Faults = fault.Spec{ServerMTTFSec: 0.8, ServerMTTRSec: 0.1, WeibullShape: 1.4, RepairCrews: 1}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Results.Faults == nil || res.Results.Faults.ServerCrashes == 0 {
		t.Fatalf("no renewal crash applied in 3s with MTTF 0.8: %+v", res.Results.Faults)
	}
}

// TestCascade: with P = 1 and depth 1, one applied point crash
// overload-crashes every alive pod sibling exactly once, children do
// not cascade further, and replay is byte-identical.
func TestCascade(t *testing.T) {
	s := scenario.Scenario{
		Seed:          51,
		Servers:       6, // no topology: whole farm is one fallback pod
		DelayTimerSec: -1,
		Placer:        scenario.PlacerSpec{Kind: scenario.PlLeastLoaded},
		Arrival:       scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.4},
		Factory:       scenario.FactorySpec{Kind: scenario.FacSingle},
		DurationSec:   2,
		Faults: fault.Spec{
			ServerCrashes: 1, ServerDownSec: 0.1,
			CascadeP: 1, CascadeDelaySec: 0.02, CascadeDepth: 1,
		},
	}
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Violations) != 0 {
		t.Fatalf("violations: %v", a.Violations)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *a.Results.Faults != *b.Results.Faults {
		t.Fatalf("cascade replay diverged:\n%+v\n%+v", *a.Results.Faults, *b.Results.Faults)
	}
	ld := a.Results.Faults
	if ld.CascadeCrashes != 5 {
		t.Errorf("CascadeCrashes = %d, want 5 (every sibling, P=1, depth capped)", ld.CascadeCrashes)
	}
	if ld.ServerCrashes != 6 {
		t.Errorf("ServerCrashes = %d, want 6 (1 point + 5 cascade)", ld.ServerCrashes)
	}

	// Cascades off (depth 0) with the same seed: the point draw is
	// unchanged and nothing cascades — the cascade stream split is gated.
	s2 := s
	s2.Faults.CascadeP = 0
	s2.Faults.CascadeDelaySec = 0
	s2.Faults.CascadeDepth = 0
	c, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if c.Results.Faults.CascadeCrashes != 0 || c.Results.Faults.ServerCrashes != 1 {
		t.Errorf("no-cascade ledger %+v, want exactly the 1 point crash", *c.Results.Faults)
	}
}

// TestOutageLogReplayRun replays a recorded outage log end to end:
// exact ledger accounting, zero violations, and byte-identical replay.
func TestOutageLogReplayRun(t *testing.T) {
	log := "# recorded outage log\n" +
		"0.010000 0.100000 server 2\n" +
		"0.200000 0.050000 rack 0\n" +
		"0.500000 0.050000 switch 0\n"
	path := filepath.Join(t.TempDir(), "outages.log")
	if err := os.WriteFile(path, []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	s := starScenario(61, 6)
	s.MaxJobs = 0
	s.DurationSec = 2
	s.Faults = fault.Spec{TraceFile: path}
	a, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Violations) != 0 {
		t.Fatalf("violations: %v", a.Violations)
	}
	ld := a.Results.Faults
	// server 2 (1), rack 0 = 6 servers + hub, switch 0 subtree = hub + 6
	// servers; all disjoint in time, so everything applies.
	if ld.ServerCrashes != 13 || ld.ServerRecovers != 13 {
		t.Errorf("server events %d/%d, want 13/13", ld.ServerCrashes, ld.ServerRecovers)
	}
	if ld.SwitchFails != 2 || ld.SwitchRestores != 2 {
		t.Errorf("switch events %d/%d, want 2/2", ld.SwitchFails, ld.SwitchRestores)
	}
	b, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if *a.Results.Faults != *b.Results.Faults || a.Results.End != b.Results.End ||
		a.Results.JobsCompleted != b.Results.JobsCompleted {
		t.Fatal("outage-log replay diverged between identical runs")
	}

	// A missing log fails construction cleanly.
	s.Faults.TraceFile = filepath.Join(t.TempDir(), "nope.log")
	if _, err := s.Run(); err == nil {
		t.Error("missing outage log accepted")
	}
}

// TestScopeSpecLabels pins the extended injective rendering.
func TestScopeSpecLabels(t *testing.T) {
	base := fault.Spec{ServerCrashes: 2, ServerDownSec: 0.5}
	baseLabel := base.String()
	variants := []fault.Spec{
		{ServerCrashes: 2, ServerDownSec: 0.5, RackKills: 1, RackDownSec: 0.2},
		{ServerCrashes: 2, ServerDownSec: 0.5, PodKills: 1, PodDownSec: 0.2},
		{ServerCrashes: 2, ServerDownSec: 0.5, SubtreeKills: 1, SubtreeDownSec: 0.2},
		{ServerCrashes: 2, ServerDownSec: 0.5, ServerMTTFSec: 1, ServerMTTRSec: 0.1},
		{ServerCrashes: 2, ServerDownSec: 0.5, SwitchMTTFSec: 1, SwitchMTTRSec: 0.1},
		{ServerCrashes: 2, ServerDownSec: 0.5, WeibullShape: 1.5},
		{ServerCrashes: 2, ServerDownSec: 0.5, RepairCrews: 2},
		{ServerCrashes: 2, ServerDownSec: 0.5, CascadeP: 0.5, CascadeDelaySec: 0.05, CascadeDepth: 1},
		{ServerCrashes: 2, ServerDownSec: 0.5, TraceFile: "x.log"},
	}
	seen := map[string]int{baseLabel: -1}
	for i, sp := range variants {
		l := sp.String()
		if l == baseLabel {
			t.Errorf("variant %d collapses onto the base label %q", i, l)
		}
		if j, dup := seen[l]; dup {
			t.Errorf("variants %d and %d share label %q", i, j, l)
		}
		seen[l] = i
	}
	// The pre-correlation rendering is frozen when the new fields are zero.
	sp := fault.Spec{ServerCrashes: 2, ServerDownSec: 0.5, LinkFlaps: 1, LinkDownSec: 0.03, Orphans: sched.OrphanDrop}
	if got := sp.String(); got != "f2c0.5-1l0.03-0s0-drop" {
		t.Errorf("frozen label broke: %q", got)
	}
}

// TestScopeKindStrings pins the outage-log words onto the scope kinds.
func TestScopeKindStrings(t *testing.T) {
	want := map[fault.ScopeKind]string{
		fault.ScopeServer:  "server",
		fault.ScopeRack:    "rack",
		fault.ScopePod:     "pod",
		fault.ScopeSubtree: "switch",
	}
	for k, s := range want {
		got, ok := fault.ParseScope(s)
		if !ok || got != k {
			t.Errorf("ParseScope(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := fault.ParseScope("datacenter"); ok {
		t.Error("ParseScope accepted an unknown scope")
	}
}

// TestCorrelatedSpecValidate extends the Validate table to the new fields.
func TestCorrelatedSpecValidate(t *testing.T) {
	bad := []fault.Spec{
		{RackKills: -1},
		{PodKills: -1},
		{SubtreeKills: -1},
		{RepairCrews: -1},
		{CascadeDepth: -1},
		{RackDownSec: -0.5},
		{CascadeP: 1.5},
		{CascadeP: -0.1},
		{CascadeP: nan()},
		{ServerMTTFSec: 1}, // renewal without MTTR
		{SwitchMTTFSec: 1}, // renewal without MTTR
		{WeibullShape: inf()},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, sp)
		}
	}
	good := fault.Spec{
		RackKills: 1, RackDownSec: 0.2,
		ServerMTTFSec: 1, ServerMTTRSec: 0.1, WeibullShape: 1.2, RepairCrews: 1,
		CascadeP: 0.5, CascadeDelaySec: 0.05, CascadeDepth: 2,
		TraceFile: "x.log",
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid correlated spec rejected: %v", err)
	}
}
