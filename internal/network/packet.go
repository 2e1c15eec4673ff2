package network

import (
	"fmt"

	"holdcsim/internal/engine"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// MaxPacketsPerTransfer caps how many packets one transfer may inject.
// The count is computed in int64 (a multi-GB payload over a small MTU
// overflows 32-bit int arithmetic), then validated against this cap so
// a pathological size/MTU combination fails loudly instead of
// scheduling billions of events.
const MaxPacketsPerTransfer = 1 << 30

// packet is one MTU-or-smaller unit traversing a fixed route
// store-and-forward: at each hop it queues at the egress port, pays
// serialization (bytes/link-rate, plus LPI wake penalty when the port
// was idle), propagates, and is forwarded after the switch latency.
//
// Packets are pooled on Network.pktFree. A packet is its own event
// handler (Fire) and holds its one pending event's record (ev), so a
// recycled packet schedules its per-hop events with zero allocation and
// a hop's dispatch loads the packet and nothing pooled; arrived says
// which hop step that event runs. xferGen snapshots the owning
// transfer's generation; a mismatch at finish means the packet outlived
// its transfer — a pool-lifetime bug surfaced immediately rather than as
// silent corruption.
type packet struct {
	bytes   int64
	nodes   []topology.NodeID
	links   []*linkState
	hop     int // index of the link currently being traversed
	xfer    *pktTransfer
	xferGen uint64

	// arrived is false while the packet propagates over links[hop]
	// (Fire lands it at the far end) and true while it waits out the
	// switch latency there (Fire queues it at the next hop's egress).
	arrived bool

	ev engine.Event
}

// Fire implements engine.Handler: the packet's pending hop step.
func (p *packet) Fire() {
	n := p.links[p.hop].net
	if p.arrived {
		n.packetForward(p)
	} else {
		n.packetArrived(p)
	}
}

// pktTransfer tracks one packet-mode data transfer. Pooled on
// Network.xferFree with a generation counter bumped on release; its
// Fire performs the (possibly wake-deferred) injection, queued in ev.
type pktTransfer struct {
	total     int64
	delivered int64
	dropped   int64

	bytes int64
	src   topology.NodeID
	route *route
	loop  bool // same-node / zero-byte transfer: no route, one logical packet
	done  func()

	gen uint64
	net *Network

	ev engine.Event
}

// Fire implements engine.Handler: the transfer's injection, scheduled
// by TransferPackets.
func (x *pktTransfer) Fire() { x.net.startPktTransfer(x) }

// allocPacket pops a pooled packet (or mints one) ready for reuse.
func (n *Network) allocPacket() *packet {
	if k := len(n.pktFree); k > 0 {
		p := n.pktFree[k-1]
		n.pktFree = n.pktFree[:k-1]
		return p
	}
	return &packet{}
}

// releasePacket clears the packet's references and returns it to the
// pool.
func (n *Network) releasePacket(p *packet) {
	p.bytes, p.hop = 0, 0
	p.nodes, p.links = nil, nil
	p.xfer, p.xferGen = nil, 0
	n.pktFree = append(n.pktFree, p)
}

// allocTransfer pops a pooled transfer (or mints one). Counters are
// zeroed at release.
func (n *Network) allocTransfer() *pktTransfer {
	if k := len(n.xferFree); k > 0 {
		x := n.xferFree[k-1]
		n.xferFree = n.xferFree[:k-1]
		return x
	}
	return &pktTransfer{net: n}
}

// releaseTransfer bumps the generation (invalidating any packet that
// still references this incarnation), clears references, and pools the
// transfer.
func (n *Network) releaseTransfer(x *pktTransfer) {
	x.gen++
	x.total, x.delivered, x.dropped = 0, 0, 0
	x.bytes, x.src, x.loop = 0, 0, false
	x.route = nil
	x.done = nil
	n.xferFree = append(n.xferFree, x)
}

// finishOne accounts packet p reaching its terminal state — delivered or
// dropped — updating both the transfer's and the network's counters, and
// fires the completion callback once all packets have finished. Dropped
// packets are not retransmitted (drops are a congestion signal counted in
// Stats); completion fires regardless so DAG progress cannot deadlock on
// a full buffer.
func (x *pktTransfer) finishOne(n *Network, p *packet, delivered bool) {
	if p.xferGen != x.gen {
		panic("network: packet finished against a recycled transfer")
	}
	if delivered {
		x.delivered++
		n.stats.PacketsDelivered++
		n.stats.BytesDelivered += p.bytes
	} else {
		x.dropped++
		n.stats.PacketsDropped++
	}
	n.releasePacket(p)
	if x.delivered+x.dropped == x.total {
		n.finishTransfer(x)
	}
}

// finishTransfer closes out a completed transfer: the open count drops
// and the transfer, and a pooled route with it (every packet has
// finished, so none reads it), return to the pools *before* the owner's
// callback runs, so a callback that starts new transfers observes
// consistent conservation state and may even reuse these very objects.
func (n *Network) finishTransfer(x *pktTransfer) {
	n.openPktTransfers--
	done := x.done
	n.freeRoute(x.route)
	n.releaseTransfer(x)
	if done != nil {
		done()
	}
}

// TransferPackets sends bytes from src to dst as MTU-sized packets,
// invoking done when every packet has been delivered (or dropped).
// Under ModelFluid the transfer instead rides one max-min fair flow
// (flow.go) with identical byte and packet accounting.
func (n *Network) TransferPackets(src, dst topology.NodeID, bytes int64, done func()) error {
	if bytes < 0 {
		return fmt.Errorf("network: negative transfer size %d", bytes)
	}
	id := n.nextFlowID
	n.nextFlowID++
	if src == dst || bytes == 0 {
		// Same-node / zero-byte payloads skip the network but are still
		// first-class transfers: one logical packet, counted open from
		// the moment of scheduling, delivered on the next event-loop
		// tick. (They used to bill BytesDelivered from a bare closure
		// without touching openPktTransfers or PacketsSent, so a deep
		// scan between schedule and tick saw inconsistent conservation
		// state.)
		x := n.allocTransfer()
		x.total = 1
		x.bytes = bytes
		x.loop = true
		x.done = done
		n.openPktTransfers++
		n.eng.AfterIn(&x.ev, 0, x)
		return nil
	}
	nPkts := (bytes + MTUBytes - 1) / MTUBytes
	if nPkts > MaxPacketsPerTransfer {
		return fmt.Errorf("network: transfer of %d bytes needs %d packets at MTU %d (cap %d)",
			bytes, nPkts, MTUBytes, MaxPacketsPerTransfer)
	}
	if n.cfg.Model == ModelFluid {
		return n.startFlow(src, dst, bytes, id, done, nPkts)
	}
	r, err := n.path(src, dst, id)
	if err != nil {
		return err
	}
	x := n.allocTransfer()
	x.total = nPkts
	x.bytes = bytes
	x.src = src
	x.route = r
	x.done = done
	n.openPktTransfers++
	wait := n.wakeRoute(r)
	n.eng.AfterIn(&x.ev, wait, x)
	return nil
}

// startPktTransfer injects a transfer's packets at the first-hop egress
// (or completes a loopback transfer). Locals are copied out first: if
// every packet finishes synchronously (the route is already down), the
// last finishOne releases x back to the pool mid-loop.
func (n *Network) startPktTransfer(x *pktTransfer) {
	if x.loop {
		n.cover.Hit(modelcov.NetPktLoopback)
		n.stats.PacketsSent++
		x.delivered = 1
		n.stats.PacketsDelivered++
		n.stats.BytesDelivered += x.bytes
		n.finishTransfer(x)
		return
	}
	total, rem := x.total, x.bytes
	nodes, links := x.route.nodes, x.route.links
	gen := x.gen
	q := links[0].egress(links[0].a == x.src)
	n.stats.PacketsSent += total
	for i := int64(0); i < total; i++ {
		sz := MTUBytes
		if rem < sz {
			sz = rem
		}
		rem -= sz
		p := n.allocPacket()
		p.bytes = sz
		p.nodes = nodes
		p.links = links
		p.xfer = x
		p.xferGen = gen
		q.enqueue(n, p)
	}
}

// egressQueue is the FIFO at one directional link end, backed by a
// power-of-two ring buffer that keeps its high-water capacity when it
// drains, so a repeated burst (every scatter edge injects its packets at
// once) allocates only the first time. The port buffer bounds that
// capacity: enqueue admits at most about PortBufferBytes/MTU packets, a
// 512-slot (4 KiB) ring at the 512 KiB default (no bound when
// PortBufferBytes is 0). busy() feeds the switch idle check.
type egressQueue struct {
	link *linkState

	sending     bool
	cur         *packet // packet being serialized
	buf         []*packet
	head, count int
	queuedBytes int64
	drops       int64

	ev engine.Event // the head packet's end of serialization
}

// minRingCap is the ring's first capacity (power of two).
const minRingCap = 8

// Fire implements engine.Handler: the head packet's serialization is
// done.
func (q *egressQueue) Fire() { q.serialized(q.link.net) }

func (q *egressQueue) busy() bool { return q.sending || q.count > 0 }

// push appends a packet to the ring, doubling capacity when full.
func (q *egressQueue) push(p *packet) {
	if q.count == len(q.buf) {
		newCap := len(q.buf) * 2
		if newCap < minRingCap {
			newCap = minRingCap
		}
		nb := make([]*packet, newCap)
		for i := 0; i < q.count; i++ {
			nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.count)&(len(q.buf)-1)] = p
	q.count++
}

// pop removes and returns the head packet.
func (q *egressQueue) pop() *packet {
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.count--
	return p
}

// enqueue adds a packet, dropping it if the link is down or the buffer
// would overflow.
func (q *egressQueue) enqueue(n *Network, p *packet) {
	if q.link.isDown() {
		q.drops++
		n.cover.Hit(modelcov.DropEnqueueLinkDown)
		p.xfer.finishOne(n, p, false)
		return
	}
	if n.cfg.PortBufferBytes > 0 && q.busy() &&
		q.queuedBytes+p.bytes > n.cfg.PortBufferBytes {
		q.drops++
		n.cover.Hit(modelcov.DropEnqueueOverflow)
		p.xfer.finishOne(n, p, false)
		return
	}
	q.push(p)
	q.queuedBytes += p.bytes
	q.maybeSend(n)
}

// maybeSend starts serializing the head packet if the line is free.
func (q *egressQueue) maybeSend(n *Network) {
	if q.sending || q.count == 0 {
		return
	}
	p := q.pop()
	q.queuedBytes -= p.bytes
	q.sending = true
	q.cur = p

	l := q.link
	// Mark both ports busy for the duration of serialization +
	// propagation; collect the LPI wake penalty. The shared LPI timer is
	// stopped once for the link rather than per port.
	n.eng.CancelIn(&l.lpiEv)
	var penalty simtime.Time
	if l.portA != nil {
		if w := l.portA.addUser(); w > penalty {
			penalty = w
		}
	}
	if l.portB != nil {
		if w := l.portB.addUser(); w > penalty {
			penalty = w
		}
	}
	// Every packet but a transfer's last is MTUBytes long, and its
	// serialization time was computed once, with the same expression.
	ser := l.mtuSer
	if p.bytes != MTUBytes {
		ser = simtime.FromSeconds(float64(p.bytes) / l.bytesPerSec)
	}
	n.eng.AfterIn(&q.ev, penalty+ser, q)
}

// serialized fires when the head packet's last bit is on the wire: the
// line frees up for the next queued packet while the current one
// propagates to the far end.
func (q *egressQueue) serialized(n *Network) {
	p := q.cur
	q.cur = nil
	q.sending = false
	if q.link.isDown() {
		// The link failed while the packet was on the wire: it is lost
		// with the link's in-flight traffic.
		q.link.markIdle()
		q.drops++
		n.cover.Hit(modelcov.DropOnWireLinkDown)
		p.xfer.finishOne(n, p, false)
		q.maybeSend(n)
		return
	}
	q.maybeSend(n)
	p.arrived = false
	n.eng.AfterIn(&p.ev, propDelay, p)
}

// dropAll retracts every queued packet (the link went down). In-flight
// packets drop at their next serialization or arrival event. Exactly the
// packets queued at the failure instant drop: completion callbacks fired
// from finishOne can schedule new transfers, and those must not be
// swept up.
func (q *egressQueue) dropAll(n *Network) {
	for k := q.count; k > 0; k-- {
		p := q.pop()
		q.queuedBytes -= p.bytes
		q.drops++
		n.cover.Hit(modelcov.DropSweep)
		p.xfer.finishOne(n, p, false)
	}
}

// packetForward queues the packet at its current hop's egress.
func (n *Network) packetForward(p *packet) {
	l := p.links[p.hop]
	l.egress(l.a == p.nodes[p.hop]).enqueue(n, p)
}

// packetArrived lands a packet at the far end of its current link.
func (n *Network) packetArrived(p *packet) {
	l := p.links[p.hop]
	l.markIdle()
	if l.isDown() {
		// Failed mid-propagation: the packet is lost, billed to the
		// egress queue it left from.
		q := l.egress(l.a == p.nodes[p.hop])
		q.drops++
		n.cover.Hit(modelcov.DropArriveLinkDown)
		p.xfer.finishOne(n, p, false)
		return
	}
	p.hop++
	if p.hop == len(p.links) { // destination host
		n.cover.Hit(modelcov.NetPktDelivered)
		p.xfer.finishOne(n, p, true)
		return
	}
	// Forwarding delay inside the switch (or relay host in server-centric
	// topologies), then queue at the next egress.
	p.arrived = true
	n.eng.AfterIn(&p.ev, switchLatency, p)
}

// Drops reports total packets dropped — buffer overflows plus
// link/switch failure losses billed to the egress queues, plus packets
// the fluid model charged against failed flows (which never touch an
// egress queue).
func (n *Network) Drops() int64 {
	d := n.fluidDrops
	for _, l := range n.links {
		d += l.egressAB.drops + l.egressBA.drops
	}
	return d
}
