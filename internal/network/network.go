// Package network implements HolDCSim's switch and network architecture
// (paper Sec. III-B): switches composed of a chassis, line cards and
// ports with hierarchical power states (port Active/LPI/Off, one rate
// per profile, no adaptive link rate), packet-level store-and-forward
// communication, flow-based communication with max-min fair bandwidth
// sharing, and automatic line-card sleep with wake penalties.
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

// The packet model's fixed figures: the size a packet-level transfer is
// cut into, the per-hop forwarding latency inside a switch and the
// per-link propagation delay.
const (
	MTUBytes      int64 = 1500
	switchLatency       = simtime.Microsecond
	propDelay           = 500 * simtime.Nanosecond
)

// DefaultConfig returns sensible defaults: 512 KiB buffers, LPI after
// 50 µs, no switch sleep.
func DefaultConfig(profile *power.SwitchProfile) Config {
	return Config{
		SwitchProfile:   profile,
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

	flows      []*Flow // active flows in launch order
	nextFlowID int64

	// Fluid-model scratch, reused across re-rates so the steady state
	// allocates nothing: the flow free list, the re-rate counter that
	// stamps a component, the fill's resource order (the per-direction
	// records are on the links, linkState.wf), and failLinkTraffic's
	// snapshot buffer; the component search's stack is at the end.
	flowFree []*Flow
	wfEpoch  uint64
	wfOrder  []*wfResource
	doomed   []doomedFlow

	// openPktTransfers counts packet-mode transfers whose completion
	// callback has not fired yet (packet conservation checking).
	openPktTransfers int

	// Free lists for the zero-alloc packet fast path: a released object
	// is reused whole, its own event handler included, so reuse
	// allocates nothing (the same pattern as the engine's event pool).
	pktFree  []*packet
	xferFree []*pktTransfer

	// routes caches the (src, dst) -> path resolution for non-ECMP
	// configurations, where the route is independent of the flow id;
	// the cached routes are carved from slab. A route that is not
	// cached (ECMP's, or a pair's past the cache's cap) comes from
	// routeFree and goes back at its transfer's or flow's end. hopNodes
	// and hopLinks are the buffers every resolution walks the graph
	// into.
	routes    map[routeKey]*route
	slab      routeSlab
	routeFree []*route
	hopNodes  []topology.NodeID
	hopLinks  []int

	// fluidDrops counts packets charged dropped by the fluid model,
	// which has no egress queues to bill; Drops() folds it in so the
	// Drops()==PacketsDropped reconciliation holds for both models.
	fluidDrops int64

	// cover, when non-nil, receives drop-site, terminal-path, and
	// switch-power coverage features (modelcov; recording only).
	cover *modelcov.Map

	stats Stats

	// The fluid model's one engine event, whose handler is the network
	// (Fire): the earliest flow completion and the flow it completes,
	// re-armed by every re-rate; then the component search's stack.
	// Last, so they move none of the fields the packet path reads.
	flowEv   engine.Event
	flowNext *Flow
	wfStack  []*Flow
}

// SetCover attaches a model-state coverage map recording drop sites,
// transfer terminal paths, and switch sleep/LPI events. Pass nil to
// detach. Coverage recording never alters simulation behavior.
func (n *Network) SetCover(m *modelcov.Map) { n.cover = m }

// routeKey indexes the route cache.
type routeKey struct{ src, dst topology.NodeID }

// route is one path resolution. A cached route's slices are shared by
// every transfer between the pair and are never mutated after
// insertion; a pooled one is one transfer's or flow's alone until it
// ends, and its slices keep their capacity for the next. sws holds the
// switches along the path so the wake check on every transfer skips the
// node-map lookups, and dirAB the direction each link is traversed in
// (true: from its a end), which water-filling keys on.
type route struct {
	nodes  []topology.NodeID
	links  []*linkState
	dirAB  []bool
	sws    []*Switch
	pooled bool // from Network.routeFree, and back there at the end
}

// maxCachedRoutes bounds route-cache memory on very large topologies;
// pairs beyond the cap resolve per call, exactly as before caching.
const maxCachedRoutes = 1 << 16

// routeSlab carves cached routes and their slices out of shared chunks,
// so caching a route allocates once per chunk, not five times. Cached
// routes live as long as the network, so a chunk is never reused.
type routeSlab struct {
	routes []route
	nodes  []topology.NodeID
	links  []*linkState
	dirAB  []bool
	sws    []*Switch
}

// slabChunk is how many elements one slab chunk holds.
const slabChunk = 512

// carve returns n elements of *chunk, capacity n, taking a new chunk of
// max(n, size) elements when the current one is short; size 0 on an
// empty chunk allocates exactly n.
func carve[T any](chunk *[]T, n, size int) []T {
	c := *chunk
	if cap(c)-len(c) < n {
		c = make([]T, 0, max(n, size))
	}
	*chunk = c[:len(c)+n]
	return c[len(c) : len(c)+n : len(c)+n]
}

// New lays the network over the topology graph: every switch node gets
// line cards and ports per its profile; every link end attached to a
// switch consumes one port.
func New(eng *engine.Engine, g *topology.Graph, cfg Config) (*Network, error) {
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
				id, g.Name(id), g.Degree(id), prof.Name, prof.Ports())
		}
		sw := newSwitch(n, id, prof)
		n.switches[id] = sw
		n.swList = append(n.swList, sw)
	}
	// Instantiate link state; allocate switch ports in link order.
	n.links = make([]*linkState, g.NumLinks())
	for i := 0; i < g.NumLinks(); i++ {
		lk := g.Link(i)
		ls := &linkState{id: i, a: lk.A, net: n}
		// A switch end caps the link at the port rate.
		rate := lk.RateBps
		if sw, ok := n.switches[lk.A]; ok {
			ls.portA = sw.allocPort(ls)
			rate = min(rate, prof.PortRateBps)
		}
		if sw, ok := n.switches[lk.B]; ok {
			ls.portB = sw.allocPort(ls)
			rate = min(rate, prof.PortRateBps)
		}
		ls.bytesPerSec = rate / 8
		ls.mtuSer = simtime.FromSeconds(float64(MTUBytes) / ls.bytesPerSec)
		ls.egressAB = &egressQueue{link: ls}
		ls.egressBA = &egressQueue{link: ls}
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
			p.state = power.PortOff
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
// Server-Network-Aware policy (Sec. IV-D). It walks the route in the
// network's buffers, allocating nothing.
func (n *Network) SleepingSwitchesOnPath(src, dst topology.NodeID) int {
	nodes, links, err := n.g.Path(src, dst, 0, n.hopNodes[:0], n.hopLinks[:0])
	if err != nil {
		return 0
	}
	n.hopNodes, n.hopLinks = nodes, links
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
// cached, in routes carved from the slab: the hot path resolves in one
// map probe and a miss allocates only when a chunk runs out. ECMP
// routes depend on the per-flow hash key and always resolve fresh, as
// do pairs beyond the cache's cap; those take a pooled route, which the
// caller returns with freeRoute once nothing can read it.
func (n *Network) path(src, dst topology.NodeID, key int64) (*route, error) {
	ecmpKey := uint64(0)
	if n.cfg.ECMP {
		ecmpKey = uint64(key)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	} else if r, ok := n.routes[routeKey{src, dst}]; ok {
		return r, nil
	}
	nodes, linkIDs, err := n.g.Path(src, dst, ecmpKey, n.hopNodes[:0], n.hopLinks[:0])
	if err != nil {
		return nil, err
	}
	n.hopNodes, n.hopLinks = nodes, linkIDs
	var r *route
	if !n.cfg.ECMP && len(n.routes) < maxCachedRoutes {
		// Carved to the exact lengths, so the appends below fill them
		// in place.
		nsw := 0
		for _, nd := range nodes {
			if n.switches[nd] != nil {
				nsw++
			}
		}
		sl := &n.slab
		r = &carve(&sl.routes, 1, slabChunk)[0]
		r.nodes = carve(&sl.nodes, len(nodes), slabChunk)
		r.links = carve(&sl.links, len(linkIDs), slabChunk)
		r.dirAB = carve(&sl.dirAB, len(linkIDs), slabChunk)
		r.sws = carve(&sl.sws, nsw, slabChunk)
		n.routes[routeKey{src, dst}] = r
	} else if k := len(n.routeFree); k > 0 {
		r = n.routeFree[k-1]
		n.routeFree = n.routeFree[:k-1]
	} else {
		r = &route{pooled: true}
	}
	r.nodes = append(r.nodes[:0], nodes...)
	r.links, r.dirAB, r.sws = r.links[:0], r.dirAB[:0], r.sws[:0]
	for i, id := range linkIDs {
		l := n.links[id]
		r.links = append(r.links, l)
		r.dirAB = append(r.dirAB, l.a == nodes[i])
	}
	for _, nd := range nodes {
		if sw := n.switches[nd]; sw != nil {
			r.sws = append(r.sws, sw)
		}
	}
	return r, nil
}

// freeRoute returns a pooled route to the pool; a cached one (or none)
// stays where it is.
func (n *Network) freeRoute(r *route) {
	if r != nil && r.pooled {
		n.routeFree = append(n.routeFree, r)
	}
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
	id          int             // index in Network.links
	a           topology.NodeID // the end direction A->B leaves from
	bytesPerSec float64         // per direction; port rate caps it at a switch end
	mtuSer      simtime.Time    // serialization time of one MTUBytes packet at bytesPerSec
	net         *Network

	portA, portB *Port

	// lpiEv is the LPI idle countdown, shared by both end ports (the
	// link's Fire is its expiry): they gain and lose traffic in lockstep
	// (markActive/maybeSend touch both, markIdle releases both), so their
	// countdowns always had identical deadlines and adjacent event seqs —
	// one link-level event halves the timer events while preserving the
	// portA-then-portB transition order.
	lpiEv engine.Event

	egressAB, egressBA *egressQueue

	// Fault admin state: adminDown is an explicit link flap; deadEnds
	// counts failed endpoint switches. Either takes the link down.
	adminDown bool
	deadEnds  int

	// wf holds the link's two water-filling records (0: A->B, 1: B->A),
	// whose flow lists grow as flows join them (flow.go). Last, so the
	// fields the packet path reads stay on the same cache lines.
	wf [2]wfResource
}

// markActive registers traffic on the link's ports (either direction).
func (l *linkState) markActive() {
	l.net.eng.CancelIn(&l.lpiEv)
	if l.portA != nil {
		l.portA.addUser()
	}
	if l.portB != nil {
		l.portB.addUser()
	}
}

// markIdle releases one traffic unit from the link's ports, starting
// the shared LPI countdown when they drain (both ports drain together;
// see lpiEv).
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
	l.net.eng.AfterIn(&l.lpiEv, l.net.cfg.LPIIdle, l)
}

// Fire implements engine.Handler for the link's LPI countdown: it moves
// the link's idle ports into Low Power Idle, in the portA-then-portB
// order the per-port timers used to fire in.
func (l *linkState) Fire() {
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
