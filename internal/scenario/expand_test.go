package scenario

import (
	"reflect"
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/fault"
	"holdcsim/internal/network"
	"holdcsim/internal/server"
)

// refExpand is the fourteen-deep loop nest Axes.Expand was before it
// became an odometer, kept as the order oracle: seeds outermost, net
// models innermost. Campaign run order and bench/pins.json ride on it.
func refExpand(a Axes, base Scenario) []Scenario {
	seeds := a.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{base.Seed}
	}
	topos := a.Topologies
	if len(topos) == 0 {
		topos = []TopologySpec{base.Topology}
	}
	comms := a.Comms
	if len(comms) == 0 {
		comms = []core.CommMode{base.Comm}
	}
	netModels := a.NetModels
	if len(netModels) == 0 {
		netModels = []network.NetModel{base.NetModel}
	}
	servers := a.Servers
	if len(servers) == 0 {
		servers = []int{base.Servers}
	}
	profiles := a.Profiles
	if len(profiles) == 0 {
		profiles = []ProfileKind{base.Profile}
	}
	queues := a.Queues
	if len(queues) == 0 {
		queues = []server.QueueMode{base.Queue}
	}
	taus := a.DelayTaus
	if len(taus) == 0 {
		taus = []float64{base.DelayTimerSec}
	}
	hetero := a.Hetero
	if len(hetero) == 0 {
		hetero = []bool{base.Heterogeneous}
	}
	placers := a.Placers
	if len(placers) == 0 {
		placers = []PlacerSpec{base.Placer}
	}
	arrivals := a.Arrivals
	if len(arrivals) == 0 {
		arrivals = []ArrivalSpec{base.Arrival}
	}
	factories := a.Factories
	if len(factories) == 0 {
		factories = []FactorySpec{base.Factory}
	}
	horizons := a.Horizons
	if len(horizons) == 0 {
		horizons = []Horizon{{MaxJobs: base.MaxJobs, DurationSec: base.DurationSec}}
	}
	faults := a.Faults
	if len(faults) == 0 {
		faults = []fault.Spec{base.Faults}
	}

	var out []Scenario
	seen := make(map[Scenario]bool)
	for _, seed := range seeds {
		for _, topo := range topos {
			for _, comm := range comms {
				for _, n := range servers {
					for _, prof := range profiles {
						for _, q := range queues {
							for _, tau := range taus {
								for _, het := range hetero {
									for _, pl := range placers {
										for _, arr := range arrivals {
											for _, fac := range factories {
												for _, h := range horizons {
													for _, fs := range faults {
														for _, nm := range netModels {
															s := base
															s.Seed = seed
															s.Topology = topo
															s.Comm = comm
															s.NetModel = nm
															s.Servers = n
															s.Profile = prof
															s.Queue = q
															s.DelayTimerSec = tau
															s.Heterogeneous = het
															s.Placer = pl
															s.Arrival = arr
															s.Factory = fac
															s.MaxJobs = h.MaxJobs
															s.DurationSec = h.DurationSec
															s.Faults = fs
															if hosts := topo.Hosts(); topo.Kind != TopoNone && s.Servers > hosts {
																s.Servers = hosts
															}
															// Clamping can collapse two farm
															// sizes onto the same scenario; run
															// each distinct scenario once.
															if seen[s] || s.Validate() != nil {
																continue
															}
															seen[s] = true
															out = append(out, s)
														}
													}
												}
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestExpandMatchesLoopNest: the odometer yields the loop nest's
// scenarios in the loop nest's order — over the matrices in use, and
// over one that turns every wheel and exercises clamping, skipping and
// de-duplication.
func TestExpandMatchesLoopNest(t *testing.T) {
	every := Axes{
		Seeds:      []uint64{1, 2},
		Topologies: []TopologySpec{{Kind: TopoNone}, {Kind: TopoStar, A: 3}, {Kind: TopoFatTree, A: 2}},
		Comms:      []core.CommMode{core.CommNone, core.CommPacket},
		NetModels:  []network.NetModel{network.ModelPacket, network.ModelFluid},
		Servers:    []int{2, 3, 4},
		Profiles:   []ProfileKind{0, 1},
		Queues:     []server.QueueMode{server.QueueUnified, server.QueuePerCore},
		DelayTaus:  []float64{-1, 0.05},
		Hetero:     []bool{false, true},
		Placers:    []PlacerSpec{{Kind: PlLeastLoaded}, {Kind: PlNetworkAware}},
		Arrivals:   []ArrivalSpec{{Kind: ArrPoisson, Rho: 0.2}, {Kind: ArrPoisson, Rho: 0.5}},
		Factories:  []FactorySpec{{Kind: FacSingle}, {Kind: FacTwoTier, EdgeBytes: 1000}},
		Horizons:   []Horizon{{MaxJobs: 10}, {DurationSec: 0.1}},
		Faults:     []fault.Spec{{}, {ServerCrashes: 1, ServerDownSec: 0.1}},
	}
	demo := DemoMatrix()
	for name, m := range map[string]Matrix{
		"demo":       demo,
		"every-axis": {Base: demo.Base, Axes: every},
		"no-axis":    {Base: demo.Base},
	} {
		got, want := m.Axes.Expand(m.Base), refExpand(m.Axes, m.Base)
		if len(want) == 0 {
			t.Errorf("%s: the reference expands to nothing", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: odometer yields %d scenarios, loop nest %d, or in another order", name, len(got), len(want))
		}
	}
}
