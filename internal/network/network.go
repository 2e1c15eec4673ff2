// Package network implements HolDCSim's switch and network architecture
// (paper Sec. III-B): switches composed of a chassis, line cards and
// ports with hierarchical power states (port Active/LPI/Off, line card
// Active/Sleep/Off), packet-level store-and-forward communication,
// flow-based communication with max-min fair bandwidth sharing, adaptive
// link rate, and automatic line-card sleep with wake penalties.
package network

import (
	"fmt"

	"holdcsim/internal/engine"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// Config parameterizes the network simulation layered on a topology.
type Config struct {
	// SwitchProfile supplies power figures for every switch.
	SwitchProfile *power.SwitchProfile

	// MTUBytes is the packet size for packet-level transfers.
	MTUBytes int64
	// SwitchLatency is the per-hop forwarding latency inside a switch.
	SwitchLatency simtime.Time
	// PropDelay is the per-link propagation delay.
	PropDelay simtime.Time
	// PortBufferBytes bounds each egress queue; excess packets drop.
	PortBufferBytes int64
	// LPIIdle is the idle time before a port enters Low Power Idle;
	// negative disables LPI.
	LPIIdle simtime.Time
	// SwitchSleepIdle is the idle time before a switch's line cards
	// sleep; negative disables switch sleep.
	SwitchSleepIdle simtime.Time
	// ECMP spreads flows across equal-cost paths by flow ID hash.
	ECMP bool
	// Model selects the simulation granularity for packet transfers:
	// per-packet store-and-forward events (the zero value) or the fluid
	// flow-level approximation (see NetModel).
	Model NetModel
}

// DefaultConfig returns sensible defaults: 1500 B MTU, 1 µs switching,
// 500 ns propagation, 512 KiB buffers, LPI after 50 µs, no switch sleep.
func DefaultConfig(profile *power.SwitchProfile) Config {
	return Config{
		SwitchProfile:   profile,
		MTUBytes:        1500,
		SwitchLatency:   simtime.Microsecond,
		PropDelay:       500 * simtime.Nanosecond,
		PortBufferBytes: 512 * 1024,
		LPIIdle:         50 * simtime.Microsecond,
		SwitchSleepIdle: -1,
	}
}

// Stats aggregates network-wide counters.
type Stats struct {
	FlowsStarted     int64
	FlowsCompleted   int64
	FlowsFailed      int64 // flows killed by a link or switch failure (⊆ completed)
	PacketsSent      int64 // packets injected by packet-mode transfers
	PacketsDelivered int64
	PacketsDropped   int64
	BytesDelivered   int64
}

// Network is the simulated interconnect: one instance per data center.
type Network struct {
	eng *engine.Engine
	g   *topology.Graph
	cfg Config

	switches map[topology.NodeID]*Switch
	swList   []*Switch // deterministic iteration order
	links    []*linkState

	flows      []*Flow // active flows in id order
	nextFlowID int64

	// Fluid-model scratch, reused across re-rates so the steady state
	// allocates nothing: the flow free list, the water-filling pass
	// counter and pass-order list (the per-direction records are on the
	// links, linkState.wf), and failLinkTraffic's snapshot buffer.
	flowFree []*Flow
	wfEpoch  uint64
	wfOrder  []*wfResource
	doomed   []doomedFlow

	// openPktTransfers counts packet-mode transfers whose completion
	// callback has not fired yet (packet conservation checking).
	openPktTransfers int

	// Free lists for the zero-alloc packet fast path: released objects
	// keep their cached dispatch closures, so reuse schedules no new
	// allocations (the same pattern as the engine's event pool).
	pktFree  []*packet
	xferFree []*pktTransfer

	// routes caches the (src, dst) -> path resolution for non-ECMP
	// configurations, where the route is independent of the flow id.
	routes map[routeKey]*route

	// fluidDrops counts packets charged dropped by the fluid model,
	// which has no egress queues to bill; Drops() folds it in so the
	// Drops()==PacketsDropped reconciliation holds for both models.
	fluidDrops int64

	// cover, when non-nil, receives drop-site, terminal-path, and
	// switch-power coverage features (modelcov; recording only).
	cover *modelcov.Map

	stats Stats
}

// SetCover attaches a model-state coverage map recording drop sites,
// transfer terminal paths, and switch sleep/LPI events. Pass nil to
// detach. Coverage recording never alters simulation behavior.
func (n *Network) SetCover(m *modelcov.Map) { n.cover = m }

// routeKey indexes the route cache.
type routeKey struct{ src, dst topology.NodeID }

// route is one cached path resolution. The slices are shared by every
// transfer between the pair and are never mutated after insertion; sws
// holds the switches along the path so the wake check on every transfer
// skips the node-map lookups, and dirAB the direction each link is
// traversed in (true: from its a end), which water-filling keys on.
type route struct {
	nodes []topology.NodeID
	links []*linkState
	dirAB []bool
	sws   []*Switch
}

// maxCachedRoutes bounds route-cache memory on very large topologies;
// pairs beyond the cap resolve per call, exactly as before caching.
const maxCachedRoutes = 1 << 16

// New lays the network over the topology graph: every switch node gets
// line cards and ports per its profile; every link end attached to a
// switch consumes one port.
func New(eng *engine.Engine, g *topology.Graph, cfg Config) (*Network, error) {
	if cfg.MTUBytes <= 0 {
		return nil, fmt.Errorf("network: MTU must be positive")
	}
	n := &Network{
		eng:      eng,
		g:        g,
		cfg:      cfg,
		switches: make(map[topology.NodeID]*Switch),
		routes:   make(map[routeKey]*route),
	}
	prof := cfg.SwitchProfile
	for _, id := range g.Switches() {
		if prof == nil {
			return nil, fmt.Errorf("network: no switch profile for node %d", id)
		}
		if err := prof.Validate(); err != nil {
			return nil, err
		}
		if prof.Ports() < g.Degree(id) {
			return nil, fmt.Errorf("network: switch %d (%s) needs %d ports, profile %q has %d",
				id, g.Node(id).Name, g.Degree(id), prof.Name, prof.Ports())
		}
		sw := newSwitch(n, id, prof)
		n.switches[id] = sw
		n.swList = append(n.swList, sw)
	}
	// Instantiate link state; allocate switch ports in link order.
	n.links = make([]*linkState, g.NumLinks())
	for i := 0; i < g.NumLinks(); i++ {
		lk := g.Link(i)
		ls := &linkState{id: i, a: lk.A, rateBps: lk.RateBps, net: n}
		ls.lpiTimer = engine.NewTimer(eng, ls.enterLPI)
		if sw, ok := n.switches[lk.A]; ok {
			ls.portA = sw.allocPort(ls)
		}
		if sw, ok := n.switches[lk.B]; ok {
			ls.portB = sw.allocPort(ls)
		}
		ls.egressAB = newEgressQueue(ls)
		ls.egressBA = newEgressQueue(ls)
		ls.refreshRate()
		// Connected ports start idle: begin the LPI countdown (a no-op
		// for host-host links, which have no ports).
		ls.armLPI()
		n.links[i] = ls
	}
	for _, sw := range n.swList {
		// Ports with no link partner are administratively down and draw
		// nothing (matches the paper's base-power measurements, which
		// exclude unconnected ports).
		for _, p := range sw.ports[sw.allocated:] {
			p.setPortState(power.PortOff)
		}
		sw.recompute()
		sw.maybeSleepArm()
	}
	return n, nil
}

// Graph exposes the underlying topology.
func (n *Network) Graph() *topology.Graph { return n.g }

// Stats returns a copy of the network counters.
func (n *Network) Stats() Stats { return n.stats }

// Switches returns the switch objects in deterministic node order.
func (n *Network) Switches() []*Switch { return n.swList }

// OpenPacketTransfers reports packet-mode transfers still in flight.
func (n *Network) OpenPacketTransfers() int { return n.openPktTransfers }

// NetworkEnergyTo reports total switch energy in joules up to t.
func (n *Network) NetworkEnergyTo(t simtime.Time) float64 {
	sum := 0.0
	for _, sw := range n.swList {
		sum += sw.meter.EnergyTo(t)
	}
	return sum
}

// SleepingSwitchesOnPath counts switches on the (key-0) route from src
// to dst that are currently asleep — the "network cost" signal of the
// Server-Network-Aware policy (Sec. IV-D).
func (n *Network) SleepingSwitchesOnPath(src, dst topology.NodeID) int {
	nodes, _, err := n.g.Path(src, dst, 0)
	if err != nil {
		return 0
	}
	count := 0
	for _, nd := range nodes {
		if sw := n.switches[nd]; sw != nil && sw.sleeping {
			count++
		}
	}
	return count
}

// path computes the route for a new transfer, honoring ECMP config.
// Without ECMP the route is a pure function of (src, dst), so it is
// cached: the hot path resolves in one map probe with no allocation.
// ECMP routes depend on the per-flow hash key and always resolve fresh.
func (n *Network) path(src, dst topology.NodeID, key int64) (*route, error) {
	ecmpKey := uint64(0)
	if n.cfg.ECMP {
		ecmpKey = uint64(key)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	} else if r, ok := n.routes[routeKey{src, dst}]; ok {
		return r, nil
	}
	nodes, linkIDs, err := n.g.Path(src, dst, ecmpKey)
	if err != nil {
		return nil, err
	}
	r := &route{
		nodes: nodes,
		links: make([]*linkState, len(linkIDs)),
		dirAB: make([]bool, len(linkIDs)),
		sws:   make([]*Switch, 0, len(nodes)),
	}
	for i, id := range linkIDs {
		r.links[i] = n.links[id]
		r.dirAB[i] = r.links[i].a == nodes[i]
	}
	for _, nd := range nodes {
		if sw := n.switches[nd]; sw != nil {
			r.sws = append(r.sws, sw)
		}
	}
	if !n.cfg.ECMP && len(n.routes) < maxCachedRoutes {
		n.routes[routeKey{src, dst}] = r
	}
	return r, nil
}

// wakeRoute initiates wake on every sleeping switch along the route and
// reports the time until all are awake (0 if none sleeping).
func (n *Network) wakeRoute(r *route) simtime.Time {
	var wait simtime.Time
	for _, sw := range r.sws {
		if d := sw.wake(); d > wait {
			wait = d
		}
	}
	return wait
}

// linkState is one bidirectional link plus its simulation state: the
// switch ports at its ends (nil at host ends), per-direction
// water-filling records and per-direction packet egress queues.
type linkState struct {
	id      int             // index in Network.links
	a       topology.NodeID // the end direction A->B leaves from
	rateBps float64
	net     *Network

	portA, portB *Port

	// lpiTimer is shared by both end ports: they gain and lose traffic
	// in lockstep (markActive/maybeSend touch both, markIdle releases
	// both), so their LPI countdowns always had identical deadlines and
	// adjacent event seqs — one link-level timer halves the timer events
	// while preserving the portA-then-portB transition order.
	lpiTimer *engine.Timer

	// effBytesPerSec caches effectiveRateBps()/8; refreshRate keeps it
	// current across ALR steps (the only runtime rate changes).
	effBytesPerSec float64

	egressAB, egressBA *egressQueue

	// Fault admin state: adminDown is an explicit link flap; deadEnds
	// counts failed endpoint switches. Either takes the link down.
	adminDown bool
	deadEnds  int

	// wf holds the link's two water-filling records (0: A->B, 1: B->A),
	// grown lazily by the passes that use them (flow.go). Last, so the
	// fields the packet path reads stay on the same cache lines.
	wf [2]wfResource
}

// bytesPerSec reports the link's current per-direction capacity in
// bytes/second (adaptive link rate lowers it). The value is cached on
// the link; setRateIdx refreshes it whenever an ALR step changes either
// port's rate, so the serialization hot path skips the two-port probe.
func (l *linkState) bytesPerSec() float64 { return l.effBytesPerSec }

// refreshRate recomputes the cached effective capacity from the
// configured rate and the two port ALR settings.
func (l *linkState) refreshRate() {
	l.effBytesPerSec = l.effectiveRateBps() / 8
}

// effectiveRateBps is the configured rate limited by the slower of the
// two port ALR settings.
func (l *linkState) effectiveRateBps() float64 {
	rate := l.rateBps
	if l.portA != nil {
		if r := l.portA.currentRateBps(); r < rate {
			rate = r
		}
	}
	if l.portB != nil {
		if r := l.portB.currentRateBps(); r < rate {
			rate = r
		}
	}
	return rate
}

// markActive registers traffic on the link's ports (either direction).
func (l *linkState) markActive() {
	l.lpiTimer.Stop()
	if l.portA != nil {
		l.portA.addUser()
	}
	if l.portB != nil {
		l.portB.addUser()
	}
}

// markIdle releases one traffic unit from the link's ports, starting
// the shared LPI countdown when they drain (both ports drain together;
// see lpiTimer).
func (l *linkState) markIdle() {
	drained := false
	if l.portA != nil {
		l.portA.removeUser()
		drained = l.portA.users == 0
	}
	if l.portB != nil {
		l.portB.removeUser()
		drained = l.portB.users == 0
	}
	if drained {
		l.armLPI()
	}
}

// armLPI starts the link's LPI idle countdown if enabled and at least
// one end port can still enter LPI.
func (l *linkState) armLPI() {
	if l.net.cfg.LPIIdle < 0 {
		return
	}
	if (l.portA == nil || l.portA.sw.failed) && (l.portB == nil || l.portB.sw.failed) {
		return
	}
	l.lpiTimer.Reset(l.net.cfg.LPIIdle)
}

// enterLPI moves the link's idle ports into Low Power Idle, in the
// portA-then-portB order the per-port timers used to fire in.
func (l *linkState) enterLPI() {
	if l.portA != nil {
		l.portA.enterLPI()
	}
	if l.portB != nil {
		l.portB.enterLPI()
	}
}

// egress returns the egress queue for the given direction (fromA=true
// means A->B).
func (l *linkState) egress(fromA bool) *egressQueue {
	if fromA {
		return l.egressAB
	}
	return l.egressBA
}
