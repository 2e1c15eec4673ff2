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
type Flow struct {
	id    int64
	links []*linkState
	dirAB []bool // direction of traversal per link

	total     float64 // bytes requested
	remaining float64 // bytes
	rate      float64 // bytes/sec, assigned by water-filling
	last      simtime.Time
	done      func()
	ev        engine.Handle
	complete  func() // cached completion callback, rescheduled on every re-rate

	// pktN > 0 marks a fluid-model packet transfer riding this flow: the
	// transfer's packet-count equivalent, billed to the packet counters
	// at start and teardown so both network models satisfy the same
	// conservation laws.
	pktN int64
}

// ID reports the flow's identifier.
func (f *Flow) ID() int64 { return f.id }

// Rate reports the current max-min fair rate in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

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

// startFlow resolves the route and launches one flow (waking sleeping
// switches first). pktN > 0 marks a fluid-model packet transfer, which
// additionally bills the packet counters (see startFluidTransfer).
func (n *Network) startFlow(src, dst topology.NodeID, bytes, id int64, done func(), pktN int64) error {
	r, err := n.path(src, dst, id)
	if err != nil {
		return err
	}
	links := r.links
	if pktN > 0 {
		n.openPktTransfers++
	}
	wait := n.wakeRoute(r)
	start := func() {
		// The started counter moves here, inside the (possibly deferred)
		// start event: a duration horizon can end the run while a flow
		// still waits on a switch wake, and a flow that never started
		// must not count against flow conservation.
		n.stats.FlowsStarted++
		if pktN > 0 {
			n.stats.PacketsSent += pktN
		}
		for _, l := range links {
			if l.isDown() {
				// The route failed before the flow could start: it fails
				// immediately (completion still fires, like a packet
				// drop, so dependents make progress).
				n.stats.FlowsCompleted++
				n.stats.FlowsFailed++
				n.cover.Hit(modelcov.NetFlowDeadStart)
				if pktN > 0 {
					n.stats.PacketsDropped += pktN
					n.fluidDrops += pktN
					n.openPktTransfers--
				}
				if done != nil {
					done()
				}
				return
			}
		}
		f := &Flow{
			id:        id,
			links:     links,
			dirAB:     make([]bool, len(links)),
			total:     float64(bytes),
			remaining: float64(bytes),
			last:      n.eng.Now(),
			done:      done,
			pktN:      pktN,
		}
		f.complete = func() { n.flowComplete(f) }
		cur := src
		for i, l := range links {
			f.dirAB[i] = l.a == cur
			cur = topology.NodeID(int(l.a) + int(l.b) - int(cur))
			if f.dirAB[i] {
				l.nFlowsAB++
			} else {
				l.nFlowsBA++
			}
			l.markActive()
		}
		n.flows = append(n.flows, f)
		n.recomputeFlowRates()
	}
	if wait > 0 {
		n.eng.After(wait, start)
	} else {
		start()
	}
	return nil
}

// startFluidTransfer runs a packet-granularity transfer under the fluid
// model: one max-min fair flow carries the bytes (one arrival and one
// departure event instead of per-packet chains), while the packet
// counters are billed as if nPkts packets had crossed — all delivered on
// completion; on a failure, full MTUs of settled progress count
// delivered and the remainder dropped, so delivered + dropped == sent
// holds for every terminal path in both models.
func (n *Network) startFluidTransfer(src, dst topology.NodeID, bytes, id int64, done func(), nPkts int64) error {
	return n.startFlow(src, dst, bytes, id, done, nPkts)
}

// ActiveFlows reports the number of in-flight flows.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// recomputeFlowRates settles all flow progress, runs progressive-filling
// (max-min fairness) over the directed link capacities, and reschedules
// every completion event.
func (n *Network) recomputeFlowRates() {
	now := n.eng.Now()
	for _, f := range n.flows {
		f.settle(now)
	}
	n.waterFill()
	for _, f := range n.flows {
		n.eng.Cancel(f.ev)
		f.ev = engine.Handle{}
		var dur simtime.Time
		switch {
		case f.remaining <= 1e-9:
			dur = 0
		case f.rate <= 0:
			continue // blocked (should not happen; capacities are positive)
		default:
			dur = simtime.FromSeconds(f.remaining / f.rate)
			if dur < 0 {
				dur = 0
			}
		}
		f.ev = n.eng.After(dur, f.complete)
	}
}

// directedKey identifies one direction of one link for water-filling.
type directedKey struct {
	link int
	ab   bool
}

// waterFill assigns max-min fair rates: iteratively find the bottleneck
// resource (smallest fair share), freeze its flows at that rate, remove
// their demand, and repeat.
func (n *Network) waterFill() {
	if len(n.flows) == 0 {
		return
	}
	type resource struct {
		cap     float64 // bytes/sec remaining
		flows   []*Flow
		unfixed int
	}
	resources := make(map[directedKey]*resource)
	var order []directedKey // deterministic iteration
	for _, f := range n.flows {
		f.rate = -1 // unfixed marker
		for i, l := range f.links {
			k := directedKey{link: l.id, ab: f.dirAB[i]}
			r, ok := resources[k]
			if !ok {
				r = &resource{cap: l.bytesPerSec()}
				resources[k] = r
				order = append(order, k)
			}
			r.flows = append(r.flows, f)
			r.unfixed++
		}
	}
	unfixed := len(n.flows)
	for unfixed > 0 {
		// Find the bottleneck resource.
		bestShare := -1.0
		var bestKey directedKey
		for _, k := range order {
			r := resources[k]
			if r.unfixed == 0 {
				continue
			}
			share := r.cap / float64(r.unfixed)
			if bestShare < 0 || share < bestShare {
				bestShare = share
				bestKey = k
			}
		}
		if bestShare < 0 {
			break // no constrained resources left (cannot happen with links on every flow)
		}
		// Freeze every unfixed flow on the bottleneck.
		for _, f := range resources[bestKey].flows {
			if f.rate >= 0 {
				continue
			}
			f.rate = bestShare
			unfixed--
			for i, l := range f.links {
				k := directedKey{link: l.id, ab: f.dirAB[i]}
				r := resources[k]
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
	for i, l := range f.links {
		if f.dirAB[i] {
			l.nFlowsAB--
		} else {
			l.nFlowsBA--
		}
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
			del = deliveredBytes / n.cfg.MTUBytes
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
	n.recomputeFlowRates()
	if f.done != nil {
		f.done()
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
