package network

import (
	"fmt"

	"holdcsim/internal/engine"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// Flow is one fluid data transfer (paper Sec. III-B: "dependent tasks
// ... can either send a single flow of data or break the flow into
// packets"). Flows on a shared link split capacity max-min fairly;
// rates are recomputed on every flow arrival and departure.
//
// Flows are pooled on Network.flowFree. A flow is its own launch event's
// handler (Fire) and holds its record (ev), so a recycled flow
// schedules its launch with zero allocation. gen is bumped on release;
// a holder that may outlive the flow (failLinkTraffic's snapshot)
// compares it before acting.
type Flow struct {
	// What every re-rate reads, together: res is the water-filling
	// record of each link's traversed direction, in route order, derived
	// at launch into the flow's own slice, which the pool keeps.
	res       []*wfResource
	remaining float64 // bytes
	rate      float64 // bytes/sec, assigned by water-filling
	last      simtime.Time
	mark      uint64 // Network.wfEpoch of the last re-rate whose component held this flow

	links []*linkState // the route's links, never mutated while the flow lives
	dirAB []bool       // the route's direction of traversal per link, likewise
	route *route       // the route itself, returned by finishFlow if pooled
	total float64      // bytes requested
	done  func()

	// pktN > 0 marks a fluid-model packet transfer riding this flow: the
	// transfer's packet-count equivalent, billed to the packet counters
	// at start and teardown so both network models satisfy the same
	// conservation laws.
	pktN int64

	gen uint64
	net *Network

	ev engine.Event
}

// Fire implements engine.Handler: the flow's (possibly wake-deferred)
// launch.
func (f *Flow) Fire() { f.net.launchFlow(f) }

// settle advances the flow's progress to time now at its current rate.
func (f *Flow) settle(now simtime.Time) {
	if now > f.last {
		f.remaining -= f.rate * (now - f.last).Seconds()
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.last = now
}

// TransferFlow starts a flow of bytes from src to dst, invoking done
// when the last byte arrives. Same-node transfers complete on the next
// event-loop tick. Sleeping switches on the route are woken first; the
// flow starts when they are up.
func (n *Network) TransferFlow(src, dst topology.NodeID, bytes int64, done func()) error {
	if bytes < 0 {
		return fmt.Errorf("network: negative flow size %d", bytes)
	}
	id := n.nextFlowID
	n.nextFlowID++
	if src == dst || bytes == 0 {
		// A pooled flow with no route: its start event delivers the
		// bytes (launchFlow), so the tick allocates nothing.
		f := n.allocFlow()
		f.total = float64(bytes)
		f.done = done
		n.eng.AfterIn(&f.ev, 0, f)
		return nil
	}
	return n.startFlow(src, dst, bytes, id, done, 0)
}

// allocFlow pops a pooled flow (or mints one).
func (n *Network) allocFlow() *Flow {
	if k := len(n.flowFree); k > 0 {
		f := n.flowFree[k-1]
		n.flowFree = n.flowFree[:k-1]
		return f
	}
	return &Flow{net: n}
}

// startFlow resolves the route and launches one flow (waking sleeping
// switches first). pktN > 0 marks a packet-granularity transfer under
// the fluid model: one max-min fair flow carries the bytes (one arrival
// and one departure event instead of per-packet chains), while the
// packet counters are billed as if pktN packets had crossed — all
// delivered on completion; on a failure, full MTUs of settled progress
// count delivered and the remainder dropped, so delivered + dropped ==
// sent holds for every terminal path in both models.
func (n *Network) startFlow(src, dst topology.NodeID, bytes, id int64, done func(), pktN int64) error {
	r, err := n.path(src, dst, id)
	if err != nil {
		return err
	}
	if pktN > 0 {
		n.openPktTransfers++
	}
	f := n.allocFlow()
	f.links, f.dirAB, f.route = r.links, r.dirAB, r
	f.total, f.remaining = float64(bytes), float64(bytes)
	f.done = done
	f.pktN = pktN
	if wait := n.wakeRoute(r); wait > 0 {
		n.eng.AfterIn(&f.ev, wait, f)
	} else {
		n.launchFlow(f)
	}
	return nil
}

// launchFlow puts a flow on its links once every switch on the route is
// awake. A flow with no route is TransferFlow's same-node or zero-byte
// transfer: it delivers at once and never counts as started.
func (n *Network) launchFlow(f *Flow) {
	if f.links == nil {
		n.stats.BytesDelivered += int64(f.total)
		n.finishFlow(f)
		return
	}
	// The started counter moves here, inside the (possibly deferred)
	// start event: a duration horizon can end the run while a flow
	// still waits on a switch wake, and a flow that never started
	// must not count against flow conservation.
	n.stats.FlowsStarted++
	if f.pktN > 0 {
		n.stats.PacketsSent += f.pktN
	}
	for _, l := range f.links {
		if l.isDown() {
			// The route failed before the flow could start: it fails
			// immediately (completion still fires, like a packet
			// drop, so dependents make progress).
			n.stats.FlowsCompleted++
			n.stats.FlowsFailed++
			n.cover.Hit(modelcov.NetFlowDeadStart)
			if f.pktN > 0 {
				n.stats.PacketsDropped += f.pktN
				n.fluidDrops += f.pktN
				n.openPktTransfers--
			}
			n.finishFlow(f)
			return
		}
	}
	f.last = n.eng.Now()
	for i, l := range f.links {
		l.markActive()
		r := l.wfSlot(f.dirAB[i])
		r.flows = append(r.flows, f)
		f.res = append(f.res, r)
	}
	n.flows = append(n.flows, f)
	n.recomputeFlowRates(f)
}

// finishFlow pools a flow that has left the network, and a pooled
// route with it, and then fires its owner's callback, so a callback that
// starts a new flow may reuse these very objects (cf. finishTransfer).
// Pooling bumps the generation, so a stale reference can tell this
// incarnation is over.
func (n *Network) finishFlow(f *Flow) {
	done := f.done
	f.gen++
	n.freeRoute(f.route)
	f.links, f.dirAB, f.route, f.done = nil, nil, nil, nil
	f.res = f.res[:0]
	n.flowFree = append(n.flowFree, f)
	if done != nil {
		done()
	}
}

// ActiveFlows reports the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// recomputeFlowRates re-rates the network after flow f joined or left
// it: only the flows connected to f's links can get new rates.
func (n *Network) recomputeFlowRates(f *Flow) {
	n.componentOf(f)
	n.rerate()
}

// wfResource is one direction of one link as water-filling sees it. The
// records live on the link (linkState.wf): flows lists the direction's
// active flows in launch order, kept as flows join and leave, and the
// other fields are one pass's working state, so a re-rate builds no map
// and, once the lists have grown to their working size, allocates
// nothing.
type wfResource struct {
	flows   []*Flow
	epoch   uint64  // Network.wfEpoch of the last component search that reached it
	cap     float64 // bytes/sec remaining
	unfixed int
}

// wfSlot returns the link's water-filling record for one direction.
func (l *linkState) wfSlot(ab bool) *wfResource {
	if ab {
		return &l.wf[0]
	}
	return &l.wf[1]
}

// componentOf stamps a fresh epoch on every active flow connected to
// f's links through shared directions of links: the flows whose rates
// f's arrival or departure can move. Max-min fairness decomposes over
// these components, so a flow outside this one keeps its rate.
func (n *Network) componentOf(f *Flow) {
	n.wfEpoch++
	e := n.wfEpoch
	stack := n.wfStack[:0]
	for g := f; ; {
		for _, r := range g.res {
			if r.epoch == e {
				continue
			}
			r.epoch = e
			for _, h := range r.flows {
				if h.mark != e {
					h.mark = e
					stack = append(stack, h)
				}
			}
		}
		if len(stack) == 0 {
			break
		}
		g = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	}
	n.wfStack = stack
}

// rerate settles every flow's progress, water-fills the flows stamped
// with the current epoch and arms the network's one completion event.
//
// Every flow is settled, stamped or not, so each flow's remaining bytes
// accumulate at the same instants as a global refill would make them.
// A component's resources are listed in their first appearance over
// the flow list (launch order, then route order); a resource first
// appears at the head of its own flow list, which is in launch order
// too. So the fill visits the component exactly as a global fill over
// all flows would, and assigns bit-identical rates.
func (n *Network) rerate() {
	now := n.eng.Now()
	order := n.wfOrder[:0]
	unfixed := 0
	for _, f := range n.flows {
		f.settle(now)
		if f.mark != n.wfEpoch {
			continue
		}
		f.rate = -1 // unfixed marker
		unfixed++
		for i, r := range f.res {
			if r.flows[0] == f {
				r.cap = f.links[i].bytesPerSec
				r.unfixed = len(r.flows)
				order = append(order, r)
			}
		}
	}
	n.wfOrder = order
	waterFill(order, unfixed)
	n.armCompletion(now)
}

// waterFill assigns max-min fair rates to the unfixed flows on order's
// resources: iteratively find the bottleneck resource (smallest fair
// share), freeze its flows at that rate, remove their demand, and
// repeat. The first strict minimum in order wins, so rates are a
// deterministic function of the flow list.
func waterFill(order []*wfResource, unfixed int) {
	for unfixed > 0 {
		// Find the bottleneck resource.
		bestShare := -1.0
		var best *wfResource
		for _, r := range order {
			if r.unfixed == 0 {
				continue
			}
			share := r.cap / float64(r.unfixed)
			if bestShare < 0 || share < bestShare {
				bestShare = share
				best = r
			}
		}
		if best == nil {
			break // no constrained resources left (cannot happen with links on every flow)
		}
		// Freeze every unfixed flow on the bottleneck.
		for _, f := range best.flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = bestShare
			unfixed--
			for _, r := range f.res {
				r.cap -= bestShare
				if r.cap < 0 {
					r.cap = 0
				}
				r.unfixed--
			}
		}
	}
}

// armCompletion replaces the network's pending completion event with
// one for the earliest-finishing flow, ties going to the earlier flow in
// list order. It stands where one event per flow, armed in list order,
// would: every completion re-rates, so only the earliest of those would
// fire, and this one takes the sequence number the first of them would
// take, so it orders against every other event exactly as the earliest
// would. A completion at or past the clock's end (simtime.Forever)
// never comes and gets no event.
func (n *Network) armCompletion(now simtime.Time) {
	n.eng.CancelIn(&n.flowEv)
	n.flowNext = nil
	next := simtime.Forever
	for _, f := range n.flows {
		at := now
		switch {
		case f.remaining <= 1e-9:
		case f.rate <= 0:
			continue // blocked (should not happen; capacities are positive)
		default:
			at = simtime.AddSeconds(now, f.remaining/f.rate)
		}
		if at < next {
			next, n.flowNext = at, f
		}
	}
	if n.flowNext != nil {
		n.eng.ScheduleIn(&n.flowEv, next, n)
	}
}

// releaseFlow is the single teardown path for a flow leaving the
// network, completed or killed: it settles progress, leaves the active
// list and its links' records, releases links and ports, updates the
// counters, re-rates the survivors, and fires the owner's callback.
// failed selects the accounting: a killed flow counts failed and
// delivers only its progress to date.
func (n *Network) releaseFlow(f *Flow, failed bool) {
	f.settle(n.eng.Now())
	n.flows = removeFlow(n.flows, f)
	for i, l := range f.links {
		r := f.res[i]
		r.flows = removeFlow(r.flows, f)
		l.markIdle()
	}
	n.stats.FlowsCompleted++
	deliveredBytes := int64(f.total)
	if failed {
		n.stats.FlowsFailed++
		deliveredBytes = int64(f.total - f.remaining)
	}
	n.stats.BytesDelivered += deliveredBytes
	if f.pktN > 0 {
		// Fluid packet accounting: a completed flow delivers all its
		// packets; a killed one delivers the full MTUs of settled
		// progress and drops the rest.
		del := f.pktN
		if failed {
			del = deliveredBytes / MTUBytes
			if del > f.pktN {
				del = f.pktN
			}
		}
		drop := f.pktN - del
		n.stats.PacketsDelivered += del
		n.stats.PacketsDropped += drop
		n.fluidDrops += drop
		n.openPktTransfers--
		if drop > 0 {
			n.cover.Hit(modelcov.DropFluidKill)
		}
		if failed {
			n.cover.Hit(modelcov.NetFluidFailed)
		} else {
			n.cover.Hit(modelcov.NetFluidComplete)
		}
	} else {
		if failed {
			n.cover.Hit(modelcov.NetFlowFailed)
		} else {
			n.cover.Hit(modelcov.NetFlowComplete)
		}
	}
	// f's links still name the component it leaves behind.
	n.recomputeFlowRates(f)
	n.finishFlow(f)
}

// removeFlow deletes f from a flow list, keeping the others in order.
func removeFlow(fs []*Flow, f *Flow) []*Flow {
	for i, g := range fs {
		if g == f {
			copy(fs[i:], fs[i+1:])
			fs[len(fs)-1] = nil
			return fs[:len(fs)-1]
		}
	}
	return fs
}

// failFlow kills a flow whose route lost a link or switch: progress to
// date counts as delivered bytes, the flow counts completed and failed,
// and the completion callback fires — exactly the drop semantics of
// packet mode, so DAG progress never deadlocks on a failure.
func (n *Network) failFlow(f *Flow) { n.releaseFlow(f, true) }

// Fire implements engine.Handler for the network's one completion event:
// it finishes the flow the event names, releasing its links and ports,
// re-rating the remaining flows and notifying the owner.
func (n *Network) Fire() {
	f := n.flowNext
	n.flowNext = nil
	n.releaseFlow(f, false)
}
