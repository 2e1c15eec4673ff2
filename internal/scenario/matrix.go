package scenario

import (
	"holdcsim/internal/core"
	"holdcsim/internal/fault"
	"holdcsim/internal/network"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
)

// Axes declares a cross-product scenario matrix. Every axis left empty
// inherits the base scenario's value; non-empty axes are expanded in
// declaration order, so the output ordering is stable. Combinations
// that do not compose a legal configuration (a comm mode without a
// topology, a network-aware placer on a server-only farm, more servers
// than hosts) are skipped — the matrix is the *valid* cross product.
type Axes struct {
	Seeds      []uint64           `json:"seeds,omitempty"`
	Topologies []TopologySpec     `json:"topologies,omitempty"`
	Comms      []core.CommMode    `json:"comms,omitempty"`
	NetModels  []network.NetModel `json:"netModels,omitempty"`
	Servers    []int              `json:"servers,omitempty"`
	Profiles   []ProfileKind      `json:"profiles,omitempty"`
	Queues     []server.QueueMode `json:"queues,omitempty"`
	DelayTaus  []float64          `json:"delayTaus,omitempty"` // seconds; < 0 disables
	Hetero     []bool             `json:"hetero,omitempty"`
	Placers    []PlacerSpec       `json:"placers,omitempty"`
	Arrivals   []ArrivalSpec      `json:"arrivals,omitempty"`
	Factories  []FactorySpec      `json:"factories,omitempty"`
	Horizons   []Horizon          `json:"horizons,omitempty"`
	Faults     []fault.Spec       `json:"faults,omitempty"`
}

// Horizon is one run-length axis value.
type Horizon struct {
	MaxJobs     int64   `json:"maxJobs,omitempty"`
	DurationSec float64 `json:"durationSec,omitempty"`
}

// Expand produces every valid scenario in the cross product of the
// axes over the base. Scenarios whose Servers exceed the topology's
// host count are clamped to the host count rather than dropped, so
// topology and farm-size axes compose without manual pairing.
func (a Axes) Expand(base Scenario) []Scenario {
	// An odometer over the axes, outermost first: seeds turn slowest and
	// net models fastest. The order is the order campaigns run in. A
	// wheel is an axis's length and the setter for its i-th value; an
	// empty axis has the one position of the base's own value.
	type wheel struct {
		n   int
		set func(s *Scenario, i int)
	}
	wheels := []wheel{
		{len(a.Seeds), func(s *Scenario, i int) { s.Seed = a.Seeds[i] }},
		{len(a.Topologies), func(s *Scenario, i int) { s.Topology = a.Topologies[i] }},
		{len(a.Comms), func(s *Scenario, i int) { s.Comm = a.Comms[i] }},
		{len(a.Servers), func(s *Scenario, i int) { s.Servers = a.Servers[i] }},
		{len(a.Profiles), func(s *Scenario, i int) { s.Profile = a.Profiles[i] }},
		{len(a.Queues), func(s *Scenario, i int) { s.Queue = a.Queues[i] }},
		{len(a.DelayTaus), func(s *Scenario, i int) { s.DelayTimerSec = a.DelayTaus[i] }},
		{len(a.Hetero), func(s *Scenario, i int) { s.Heterogeneous = a.Hetero[i] }},
		{len(a.Placers), func(s *Scenario, i int) { s.Placer = a.Placers[i] }},
		{len(a.Arrivals), func(s *Scenario, i int) { s.Arrival = a.Arrivals[i] }},
		{len(a.Factories), func(s *Scenario, i int) { s.Factory = a.Factories[i] }},
		{len(a.Horizons), func(s *Scenario, i int) { s.MaxJobs, s.DurationSec = a.Horizons[i].MaxJobs, a.Horizons[i].DurationSec }},
		{len(a.Faults), func(s *Scenario, i int) { s.Faults = a.Faults[i] }},
		{len(a.NetModels), func(s *Scenario, i int) { s.NetModel = a.NetModels[i] }},
	}
	var out []Scenario
	seen := make(map[Scenario]bool)
	pos := make([]int, len(wheels))
	var s Scenario // one copy of base, re-made per combination: the setters take its address
	for {
		s = base
		for w, i := range pos {
			if wheels[w].n > 0 {
				wheels[w].set(&s, i)
			}
		}
		if hosts := s.Topology.Hosts(); s.Topology.Kind != TopoNone && s.Servers > hosts {
			s.Servers = hosts
		}
		// Clamping can collapse two farm sizes onto the same scenario;
		// run each distinct scenario once.
		if !seen[s] && s.Validate() == nil {
			seen[s] = true
			out = append(out, s)
		}
		w := len(pos) - 1
		for ; w >= 0; w-- {
			if pos[w]++; pos[w] < wheels[w].n {
				break
			}
			pos[w] = 0
		}
		if w < 0 {
			return out
		}
	}
}

// Random draws one valid scenario from the full registry of builders —
// all five topologies (plus server-only), all three comm modes, every
// placer and pool/provisioning/DVFS governor, Poisson/MMPP/trace
// arrivals, all four job shapes, homogeneous and heterogeneous core
// mixes — deterministically from the seed. The same seed always yields
// the same scenario; the scenario's own Seed is also derived from it,
// so Random(seed).Run() is a pure function.
//
// Shape parameters are bounded so a drawn scenario stays test-sized
// (hundreds of jobs, tens of servers, seconds of virtual time).
func Random(seed uint64) Scenario {
	r := rng.New(seed).Split("random-scenario")
	s := Scenario{Seed: seed}

	// Topology and comm mode.
	switch r.IntN(6) {
	case 0:
		s.Topology = TopologySpec{Kind: TopoNone}
	case 1:
		s.Topology = TopologySpec{Kind: TopoStar, A: 2 + r.IntN(15)}
	case 2:
		s.Topology = TopologySpec{Kind: TopoFatTree, A: 2 + 2*r.IntN(2)} // k ∈ {2, 4}
	case 3:
		s.Topology = TopologySpec{Kind: TopoBCube, A: 2 + r.IntN(2), B: r.IntN(2)}
	case 4:
		s.Topology = TopologySpec{Kind: TopoCamCube, A: 2 + r.IntN(2), B: 2 + r.IntN(2), C: 2}
	case 5:
		s.Topology = TopologySpec{Kind: TopoFlatButterfly, A: 2 + r.IntN(2), B: 2, C: 1 + r.IntN(2)}
	}
	if s.Topology.Kind != TopoNone {
		s.Comm = core.CommMode(r.IntN(3)) // none, flow, packet
		s.SwitchSleepSec = -1
		if r.Bernoulli(0.3) {
			s.SwitchSleepSec = 0.2
		}
	}

	// Farm.
	maxServers := 12
	if h := s.Topology.Hosts(); s.Topology.Kind != TopoNone && h < maxServers {
		maxServers = h
	}
	s.Servers = 1 + r.IntN(maxServers)
	s.Profile = ProfileKind(r.IntN(3))
	s.Queue = server.QueueMode(r.IntN(2))
	s.DelayTimerSec = [...]float64{-1, 0, 0.05, 0.5}[r.IntN(4)]
	s.Heterogeneous = r.Bernoulli(0.4)
	s.GlobalQueue = r.Bernoulli(0.3)

	// Placement policy. Network-aware only composes with a topology.
	kinds := []PlacerKind{PlLeastLoaded, PlRoundRobin, PlPackFirst, PlRandom,
		PlAdaptivePool, PlProvisioner, PlDualTimer}
	if s.Topology.Kind != TopoNone {
		kinds = append(kinds, PlNetworkAware)
	}
	s.Placer = PlacerSpec{Kind: kinds[r.IntN(len(kinds))], TauSec: 0.05 + r.Float64()*0.5}

	// Workload.
	s.Arrival = ArrivalSpec{
		Kind:       ArrivalKind(r.IntN(4)),
		Rho:        0.1 + 0.7*r.Float64(),
		BurstRatio: 2 + r.Float64()*6,
		TraceSec:   2 + r.Float64()*6,
	}
	s.Factory = FactorySpec{
		Kind:    FactoryKind(r.IntN(4)),
		Service: ServiceKind(r.IntN(3)),
		Width:   1 + r.IntN(3),
		Layers:  1 + r.IntN(3),
	}
	if s.Comm != core.CommNone {
		// Keep packet-mode event counts bounded: <= ~70 MTUs per edge.
		s.Factory.EdgeBytes = int64(1+r.IntN(100)) * 1024
	}

	// Horizon. DVFS governors never stop ticking, so they pair only
	// with a time horizon.
	if r.Bernoulli(0.5) {
		s.DurationSec = 1 + 2*r.Float64()
		s.DVFS = r.Bernoulli(0.3)
	} else {
		s.MaxJobs = int64(50 + r.IntN(250))
	}
	// Trace arrivals derive their rate from farm capacity: a big farm
	// with a short service time can pack 10^5+ arrivals into a few trace
	// seconds. Always cap generation so one drawn scenario stays
	// test-sized regardless of farm × service composition.
	if s.Arrival.Kind == ArrTraceWiki || s.Arrival.Kind == ArrTraceNLANR {
		if s.MaxJobs == 0 || s.MaxJobs > 400 {
			s.MaxJobs = int64(100 + r.IntN(300))
		}
	}

	// Network-model axis, drawn from its own substream so every field
	// above keeps its historical draw for a given seed. Fluid only
	// composes with packet comm.
	nmr := r.Split("netmodel")
	if s.Comm == core.CommPacket && nmr.Bernoulli(0.3) {
		s.NetModel = network.ModelFluid
	}

	// Failure axis, drawn from a dedicated substream so every pre-fault
	// field above keeps its historical draw for a given seed. About a
	// third of drawn scenarios run under failure; network fault classes
	// compose only with a topology.
	fr := r.Split("faults")
	if fr.Bernoulli(0.35) {
		s.Faults.ServerCrashes = 1 + fr.IntN(3)
		s.Faults.ServerDownSec = 0.05 + fr.Float64()*0.4
		if fr.Bernoulli(0.5) {
			s.Faults.Orphans = sched.OrphanDrop
		}
		if s.Topology.Kind != TopoNone {
			if fr.Bernoulli(0.5) {
				s.Faults.LinkFlaps = 1 + fr.IntN(2)
				s.Faults.LinkDownSec = 0.02 + fr.Float64()*0.2
			}
			if fr.Bernoulli(0.35) {
				s.Faults.SwitchKills = 1
				s.Faults.SwitchDownSec = 0.05 + fr.Float64()*0.3
			}
		}
	}

	// Correlated-failure axes, drawn after every point-fault field so the
	// draws above keep their historical values for a given seed. Scope
	// blasts compose with any farm (switchless farms fall back to fixed
	// rack blocks); subtree kills need real switches.
	if fr.Bernoulli(0.3) {
		switch fr.IntN(3) {
		case 0:
			s.Faults.RackKills = 1
			s.Faults.RackDownSec = 0.05 + fr.Float64()*0.3
		case 1:
			s.Faults.PodKills = 1
			s.Faults.PodDownSec = 0.05 + fr.Float64()*0.3
		case 2:
			if s.Topology.Kind != TopoNone {
				s.Faults.SubtreeKills = 1
				s.Faults.SubtreeDownSec = 0.05 + fr.Float64()*0.3
			} else {
				s.Faults.RackKills = 1
				s.Faults.RackDownSec = 0.05 + fr.Float64()*0.3
			}
		}
	}
	if fr.Bernoulli(0.25) {
		// Renewal lifetimes a few times the horizon scale: a handful of
		// failures per run, never an event storm.
		s.Faults.ServerMTTFSec = 0.5 + fr.Float64()*2
		s.Faults.ServerMTTRSec = 0.05 + fr.Float64()*0.2
		if fr.Bernoulli(0.5) {
			s.Faults.WeibullShape = 0.8 + fr.Float64()*1.4
		}
		if fr.Bernoulli(0.5) {
			s.Faults.RepairCrews = 1 + fr.IntN(2)
		}
	}
	if fr.Bernoulli(0.2) {
		s.Faults.CascadeP = 0.3 + fr.Float64()*0.7
		s.Faults.CascadeDelaySec = 0.02 + fr.Float64()*0.1
		s.Faults.CascadeDepth = 1 + fr.IntN(2)
	}
	return s
}
