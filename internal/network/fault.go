package network

import (
	"fmt"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/topology"
)

// Admin-state fault model (link flap, switch death).
//
// A link is down when its administrative flag is cleared (a flap) or
// when either of its endpoint switches is dead; the two causes stack,
// so a flapped link under a dead switch stays down until both clear.
// Going down drops every packet queued or in flight on the link and
// kills every fluid flow crossing it — completion callbacks still fire
// (exactly like buffer-overflow drops) so DAG progress never deadlocks
// on a failure, and the loss is visible in Stats (PacketsDropped,
// FlowsFailed) and in the per-link drop counters the invariant checker
// reconciles.

// isDown reports whether the link currently carries no traffic.
func (l *linkState) isDown() bool { return l.adminDown || l.deadEnds > 0 }

// NumLinks reports the number of links (fault targeting and tests).
func (n *Network) NumLinks() int { return len(n.links) }

// LinkAdminDown reports whether link id is administratively flapped
// down (excluding switch-death effects).
func (n *Network) LinkAdminDown(id int) bool {
	if id < 0 || id >= len(n.links) {
		return false
	}
	return n.links[id].adminDown
}

// SetLinkAdmin flaps one link down or back up. Cutting a link drops its
// queued and in-flight packets and kills the flows crossing it;
// restoring it is instantaneous (subsequent transfers route over it
// again). Setting the current state is a no-op.
func (n *Network) SetLinkAdmin(id int, up bool) error {
	if id < 0 || id >= len(n.links) {
		return fmt.Errorf("network: link %d out of range [0, %d)", id, len(n.links))
	}
	l := n.links[id]
	if up {
		l.adminDown = false
		return nil
	}
	if l.adminDown {
		return nil
	}
	wasDown := l.isDown()
	l.adminDown = true
	if !wasDown {
		n.failLinkTraffic(l)
	}
	return nil
}

// SetSwitchAdmin kills or revives the switch at a node. Death zeroes
// the switch's draw (residency bills to "Down"), takes every incident
// link down, and voids any in-flight sleep/wake transition; revival
// restores line cards and connected ports to Active. Setting the
// current state is a no-op.
func (n *Network) SetSwitchAdmin(node topology.NodeID, up bool) error {
	sw := n.switches[node]
	if sw == nil {
		return fmt.Errorf("network: node %d is not a switch", node)
	}
	if up {
		if !sw.failed {
			return nil
		}
		sw.failed = false
		for _, lc := range sw.lineCards {
			lc.setLCState(power.LineCardActive)
		}
		for _, p := range sw.ports {
			if p.link != nil {
				p.setPortState(power.PortActive)
				p.link.armLPI()
			} else {
				p.setPortState(power.PortOff)
			}
		}
		sw.recompute()
		sw.maybeSleepArm()
		for _, p := range sw.ports {
			if p.link != nil {
				p.link.deadEnds--
			}
		}
		return nil
	}
	if sw.failed {
		return nil
	}
	sw.failed = true
	sw.sleeping = false
	sw.waking = false
	n.eng.Cancel(sw.wakeEv)
	sw.wakeEv = engine.Handle{}
	sw.sleepTmr.Stop()
	for _, lc := range sw.lineCards {
		lc.setLCState(power.LineCardOff)
	}
	for _, p := range sw.ports {
		// The shared link LPI timer is left running for the partner
		// port; a fire against this port is a no-op once it is Off.
		p.setPortState(power.PortOff)
	}
	sw.recompute()
	for _, p := range sw.ports {
		if p.link == nil {
			continue
		}
		wasDown := p.link.isDown()
		p.link.deadEnds++
		if !wasDown {
			n.failLinkTraffic(p.link)
		}
	}
	return nil
}

// doomedFlow is one entry of failLinkTraffic's snapshot: a flow and the
// generation it had when it was seen crossing the failed link.
type doomedFlow struct {
	f   *Flow
	gen uint64
}

// failLinkTraffic retracts everything the link is carrying: queued
// packets in both directions drop at their egress queues, and every
// flow crossing the link fails (its completion fires immediately).
// Packets already serializing or propagating drop when their next event
// fires and observes the down link.
func (n *Network) failLinkTraffic(l *linkState) {
	// Snapshot: failFlow mutates n.flows, and completion callbacks can
	// start new flows on other links. A callback can also fail another
	// link and so kill a flow this snapshot still names (its object may
	// even be back in use by then): the generation check skips it, and
	// the buffer is detached while in use so that nested call gets its
	// own.
	doomed := n.doomed[:0]
	n.doomed = nil
	for _, f := range n.flows {
		for _, fl := range f.links {
			if fl == l {
				doomed = append(doomed, doomedFlow{f, f.gen})
				break
			}
		}
	}
	for _, d := range doomed {
		if d.f.gen == d.gen {
			n.failFlow(d.f)
		}
	}
	n.doomed = doomed[:0]
	l.egressAB.dropAll(n)
	l.egressBA.dropAll(n)
}
