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
// Flows are pooled on Network.flowFree: the start and complete closures
// are created once per pooled object and survive reuse, so a recycled
// flow schedules its events with zero allocation. gen is bumped on
// release; a holder that may outlive the flow (failLinkTraffic's
// snapshot) compares it before acting.
type Flow struct {
	links []*linkState // the route's links, shared and never mutated
	dirAB []bool       // the route's direction of traversal per link, likewise

	total     float64 // bytes requested
	remaining float64 // bytes
	rate      float64 // bytes/sec, assigned by water-filling
	last      simtime.Time
	done      func()
	ev        engine.Handle

	// pktN > 0 marks a fluid-model packet transfer riding this flow: the
	// transfer's packet-count equivalent, billed to the packet counters
	// at start and teardown so both network models satisfy the same
	// conservation laws.
	pktN int64

	gen      uint64
	start    func() // cached (possibly wake-deferred) launch callback
	complete func() // cached completion callback, rescheduled on every re-rate
}

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
		n.eng.After(0, func() {
			n.stats.BytesDelivered += bytes
			if done != nil {
				done()
			}
		})
		return nil
	}
	return n.startFlow(src, dst, bytes, id, done, 0)
}

// allocFlow pops a pooled flow (or mints one with its cached closures).
func (n *Network) allocFlow() *Flow {
	if k := len(n.flowFree); k > 0 {
		f := n.flowFree[k-1]
		n.flowFree = n.flowFree[:k-1]
		return f
	}
	f := &Flow{}
	f.start = func() { n.launchFlow(f) }
	f.complete = func() { n.flowComplete(f) }
	return f
}

// freeFlow bumps the generation (so a stale reference can tell this
// incarnation is over), clears references, and pools the flow.
func (n *Network) freeFlow(f *Flow) {
	f.gen++
	f.links, f.dirAB, f.done = nil, nil, nil
	n.flowFree = append(n.flowFree, f)
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
	f.links, f.dirAB = r.links, r.dirAB
	f.total, f.remaining = float64(bytes), float64(bytes)
	f.done = done
	f.pktN = pktN
	if wait := n.wakeRoute(r); wait > 0 {
		n.eng.After(wait, f.start)
	} else {
		n.launchFlow(f)
	}
	return nil
}

// launchFlow puts a flow on its links once every switch on the route is
// awake — the body of the cached start closure.
func (n *Network) launchFlow(f *Flow) {
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
			done := f.done
			n.freeFlow(f)
			if done != nil {
				done()
			}
			return
		}
	}
	f.last = n.eng.Now()
	for _, l := range f.links {
		l.markActive()
	}
	n.flows = append(n.flows, f)
	n.recomputeFlowRates()
}

// ActiveFlows reports the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// recomputeFlowRates settles all flow progress, runs progressive-filling
// (max-min fairness) over the directed link capacities, and reschedules
// every completion event. A completion at or past the clock's end
// (simtime.Forever) never comes and gets no event.
func (n *Network) recomputeFlowRates() {
	now := n.eng.Now()
	for _, f := range n.flows {
		f.settle(now)
	}
	n.waterFill()
	for _, f := range n.flows {
		n.eng.Cancel(f.ev)
		f.ev = engine.Handle{}
		at := now
		switch {
		case f.remaining <= 1e-9:
		case f.rate <= 0:
			continue // blocked (should not happen; capacities are positive)
		default:
			if at = simtime.AddSeconds(now, f.remaining/f.rate); at == simtime.Forever {
				continue
			}
		}
		f.ev = n.eng.Schedule(at, f.complete)
	}
}

// wfResource is one direction of one link as water-filling sees it. The
// records live on the link (linkState.wf) and are claimed per pass by
// stamping the pass's epoch, so a pass builds no map and, once the flow
// slices have grown to their working size, allocates nothing.
type wfResource struct {
	epoch   uint64  // Network.wfEpoch of the pass that last claimed this slot
	cap     float64 // bytes/sec remaining
	flows   []*Flow
	unfixed int
}

// wfSlot returns the link's water-filling record for one direction.
func (l *linkState) wfSlot(ab bool) *wfResource {
	if ab {
		return &l.wf[0]
	}
	return &l.wf[1]
}

// waterFill assigns max-min fair rates: iteratively find the bottleneck
// resource (smallest fair share), freeze its flows at that rate, remove
// their demand, and repeat. Resources are visited in first-appearance
// order over flows in list order and the first strict minimum wins, so
// rates are a deterministic function of the flow list.
func (n *Network) waterFill() {
	if len(n.flows) == 0 {
		return
	}
	n.wfEpoch++
	order := n.wfOrder[:0]
	for _, f := range n.flows {
		f.rate = -1 // unfixed marker
		for i, l := range f.links {
			r := l.wfSlot(f.dirAB[i])
			if r.epoch != n.wfEpoch {
				r.epoch = n.wfEpoch
				r.cap = l.bytesPerSec
				r.flows = r.flows[:0]
				r.unfixed = 0
				order = append(order, r)
			}
			r.flows = append(r.flows, f)
			r.unfixed++
		}
	}
	n.wfOrder = order
	unfixed := len(n.flows)
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
			for i, l := range f.links {
				r := l.wfSlot(f.dirAB[i])
				r.cap -= bestShare
				if r.cap < 0 {
					r.cap = 0
				}
				r.unfixed--
			}
		}
	}
}

// releaseFlow is the single teardown path for a flow leaving the
// network, completed or killed: it settles progress, leaves the active
// list, releases links and ports, updates the counters, re-rates the
// survivors, and fires the owner's callback. failed selects the
// accounting: a killed flow counts failed and delivers only its
// progress to date.
func (n *Network) releaseFlow(f *Flow, failed bool) {
	f.settle(n.eng.Now())
	// Remove from the active list (kept in id order).
	for i, g := range n.flows {
		if g == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			break
		}
	}
	// Inert for a completed flow (its event already fired); a killed
	// flow's pending completion must not land later.
	n.eng.Cancel(f.ev)
	f.ev = engine.Handle{}
	for _, l := range f.links {
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
	// Pooled before the owner's callback runs (cf. finishTransfer), so a
	// callback that starts a new flow may reuse this very object.
	done := f.done
	n.freeFlow(f)
	n.recomputeFlowRates()
	if done != nil {
		done()
	}
}

// failFlow kills a flow whose route lost a link or switch: progress to
// date counts as delivered bytes, the flow counts completed and failed,
// and the completion callback fires — exactly the drop semantics of
// packet mode, so DAG progress never deadlocks on a failure.
func (n *Network) failFlow(f *Flow) { n.releaseFlow(f, true) }

// flowComplete finishes a flow: releases its links and ports, notifies
// the owner, and re-rates the remaining flows.
func (n *Network) flowComplete(f *Flow) { n.releaseFlow(f, false) }
