package network

import (
	"testing"

	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// reconcile asserts the packet-accounting laws that must hold once a
// network has drained: delivered + dropped == sent, the per-queue drop
// ledger matches the stats counter, and no transfer is left open.
func reconcile(t *testing.T, n *Network) {
	t.Helper()
	st := n.Stats()
	if st.PacketsDelivered+st.PacketsDropped != st.PacketsSent {
		t.Errorf("delivered %d + dropped %d != sent %d",
			st.PacketsDelivered, st.PacketsDropped, st.PacketsSent)
	}
	if d := n.Drops(); d != st.PacketsDropped {
		t.Errorf("Drops() = %d, stats.PacketsDropped = %d", d, st.PacketsDropped)
	}
	if open := n.OpenPacketTransfers(); open != 0 {
		t.Errorf("%d transfers still open after drain", open)
	}
}

// linkOf returns the link attached to the given host.
func linkOf(t *testing.T, n *Network, host topology.NodeID) *linkState {
	t.Helper()
	for i, l := range n.links {
		if lk := n.g.Link(i); lk.A == host || lk.B == host {
			return l
		}
	}
	t.Fatalf("no link attached to node %d", host)
	return nil
}

// TestLoopbackTransferFirstClass pins the bugfix for same-node and
// zero-byte transfers: they used to bill BytesDelivered from a bare
// closure without ever counting in openPktTransfers or PacketsSent, so
// an invariant scan between schedule and tick saw delivered bytes with
// no transfer open, and the final counters claimed bytes without
// packets. They are first-class pooled transfers now.
func TestLoopbackTransferFirstClass(t *testing.T) {
	cases := []struct {
		name     string
		src, dst int // host indices
		bytes    int64
	}{
		{"same-node", 0, 0, 500},
		{"zero-byte", 0, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, n, hosts := starNet(t, 4, nil)
			done := false
			if err := n.TransferPackets(hosts[tc.src], hosts[tc.dst], tc.bytes, func() { done = true }); err != nil {
				t.Fatal(err)
			}
			// Between schedule and the delivery tick the transfer must be
			// visibly open (this is what the old code got wrong).
			if open := n.OpenPacketTransfers(); open != 1 {
				t.Fatalf("open transfers before tick = %d, want 1", open)
			}
			if st := n.Stats(); st.BytesDelivered != 0 || st.PacketsDelivered != 0 {
				t.Fatalf("counters billed before the delivery tick: %+v", st)
			}
			eng.Run()
			if !done {
				t.Fatal("completion callback did not fire")
			}
			st := n.Stats()
			if st.PacketsSent != 1 || st.PacketsDelivered != 1 || st.PacketsDropped != 0 {
				t.Errorf("packet counters = %+v, want one sent and delivered", st)
			}
			if st.BytesDelivered != tc.bytes {
				t.Errorf("BytesDelivered = %d, want %d", st.BytesDelivered, tc.bytes)
			}
			reconcile(t, n)
		})
	}
}

// TestTransferPacketCountCap pins the int64 packet-count computation: a
// multi-TB payload (whose packet count overflows 32-bit int arithmetic)
// must fail loudly at the cap, leaving no state behind.
func TestTransferPacketCountCap(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	bytes := int64(MaxPacketsPerTransfer+1) * 1500 // nPkts = cap+1
	err := n.TransferPackets(hosts[0], hosts[1], bytes, func() { t.Error("callback fired for rejected transfer") })
	if err == nil {
		t.Fatal("transfer above the packet-count cap accepted")
	}
	if open := n.OpenPacketTransfers(); open != 0 {
		t.Errorf("rejected transfer left %d open", open)
	}
	eng.Run()
	if st := n.Stats(); st != (Stats{}) {
		t.Errorf("rejected transfer touched counters: %+v", st)
	}
}

// TestEgressRingKeepsCapacityAfterDrain pins the ring's high-water
// policy: a drained queue keeps the capacity its burst grew, so the next
// identical burst reuses the same backing array instead of regrowing it
// from minRingCap (which cost dag-packet four allocations per 64 KiB
// edge).
func TestEgressRingKeepsCapacityAfterDrain(t *testing.T) {
	eng, n, hosts := starNet(t, 4, func(c *Config) {
		c.PortBufferBytes = 1 << 30
	})
	l := linkOf(t, n, hosts[0])
	q := l.egress(l.a == hosts[0])
	// 40 packets burst into one 12 us/packet link: ~39 queue behind the
	// first, growing the ring well past minRingCap.
	burst := func() {
		if err := n.TransferPackets(hosts[0], hosts[1], 60_000, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
		if q.count != 0 || q.queuedBytes != 0 {
			t.Fatalf("queue not drained: count %d, bytes %d", q.count, q.queuedBytes)
		}
	}
	burst()
	grown := q.buf
	if len(grown) <= minRingCap {
		t.Fatalf("ring never grew under burst (cap %d); test is vacuous", len(grown))
	}
	burst()
	if len(q.buf) != len(grown) || &q.buf[0] != &grown[0] {
		t.Errorf("second burst reallocated the ring: cap %d -> %d", len(grown), len(q.buf))
	}
	reconcile(t, n)
}

// TestPacketTerminalPaths drives one packet (or burst) into each of the
// terminal states — delivered, buffer drop, down-at-enqueue,
// down-at-serialized, down-mid-propagation, and the dropAll sweep — and
// reconciles Drops() against stats.PacketsDropped and transfer
// completion on every path. Timing on the 1 Gb/s star: 12 us
// serialization per packet per hop, 500 ns propagation, 1 us switching.
func TestPacketTerminalPaths(t *testing.T) {
	type tc struct {
		name    string
		bytes   int64
		buffer  int64
		downAt  simtime.Time // < 0: never
		dropped int64        // -1: just require > 0
	}
	cases := []tc{
		{"delivered", 3000, 0, -1, 0},
		{"buffer-drop", 45_000, 4000, -1, -1},
		// Link cut before the start tick: both packets die at enqueue.
		{"down-at-enqueue", 3000, 0, 0, 2},
		// Cut mid-serialization (ser completes at 12 us): the packet is
		// lost when its last bit would go on the wire.
		{"down-at-serialized", 1500, 0, 6 * simtime.Microsecond, 1},
		// Cut between serialized (12 us) and arrival (12.5 us): lost
		// mid-propagation, billed to the egress it left.
		{"down-mid-propagation", 1500, 0, 12250 * simtime.Nanosecond, 1},
		// Three packets: one serializing, two queued. The sweep retracts
		// the queued two at the cut; the in-flight one dies at its next
		// event.
		{"drop-all-sweep", 4500, 0, 5 * simtime.Microsecond, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, n, hosts := starNet(t, 4, func(cfg *Config) {
				if c.buffer > 0 {
					cfg.PortBufferBytes = c.buffer
				} else {
					cfg.PortBufferBytes = 1 << 30
				}
			})
			done := false
			if err := n.TransferPackets(hosts[0], hosts[1], c.bytes, func() { done = true }); err != nil {
				t.Fatal(err)
			}
			l := linkOf(t, n, hosts[0])
			if c.downAt >= 0 {
				cut := func() {
					if err := n.SetLinkAdmin(l.id, false); err != nil {
						t.Error(err)
					}
				}
				if c.downAt == 0 {
					cut() // before the start tick: down at enqueue
				} else {
					eng.After(c.downAt, cut)
				}
			}
			eng.Run()
			if !done {
				t.Fatal("completion callback did not fire")
			}
			st := n.Stats()
			switch {
			case c.dropped < 0:
				if st.PacketsDropped == 0 {
					t.Error("expected drops, saw none")
				}
			default:
				if st.PacketsDropped != c.dropped {
					t.Errorf("dropped = %d, want %d", st.PacketsDropped, c.dropped)
				}
			}
			reconcile(t, n)
		})
	}
}

// TestFluidPacketDifferential runs the same overlapping transfer set
// under the packet and fluid models. Byte and packet counters must be
// identical (the fluid model bills the same ledger); completion time
// agrees only within a factor — serialization pipelining vs max-min
// rate sharing resolve contention differently.
func TestFluidPacketDifferential(t *testing.T) {
	run := func(model NetModel) (Stats, simtime.Time) {
		eng, n, hosts := starNet(t, 8, func(c *Config) {
			c.Model = model
			c.PortBufferBytes = 1 << 30
		})
		var last simtime.Time
		done := func() { last = eng.Now() }
		// Two transfers contending for the link into host 1, one disjoint,
		// plus a loopback (identical in both models).
		for _, tr := range []struct {
			src, dst int
			bytes    int64
		}{{0, 1, 90_000}, {2, 1, 90_000}, {3, 4, 45_000}, {5, 5, 700}} {
			if err := n.TransferPackets(hosts[tr.src], hosts[tr.dst], tr.bytes, done); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run()
		reconcile(t, n)
		return n.Stats(), last
	}
	ps, pEnd := run(ModelPacket)
	fs, fEnd := run(ModelFluid)
	if ps.PacketsSent != fs.PacketsSent ||
		ps.PacketsDelivered != fs.PacketsDelivered ||
		ps.PacketsDropped != fs.PacketsDropped ||
		ps.BytesDelivered != fs.BytesDelivered {
		t.Errorf("counter mismatch:\n packet %+v\n fluid  %+v", ps, fs)
	}
	if ps.PacketsDropped != 0 {
		t.Errorf("unexpected drops %d in a clean differential", ps.PacketsDropped)
	}
	if fEnd <= 0 || pEnd <= 0 {
		t.Fatalf("degenerate completion times: packet %v, fluid %v", pEnd, fEnd)
	}
	if ratio := float64(fEnd) / float64(pEnd); ratio < 0.5 || ratio > 2 {
		t.Errorf("fluid completion %v vs packet %v (ratio %.2f) outside [0.5, 2]", fEnd, pEnd, ratio)
	}
}

// TestFluidTransferFailureAccounting kills the bottleneck link mid-flow
// and checks the fluid model's failure ledger: settled full MTUs count
// delivered, the remainder drops, and Drops() still reconciles even
// though fluid drops never touch an egress queue.
func TestFluidTransferFailureAccounting(t *testing.T) {
	eng, n, hosts := starNet(t, 4, func(c *Config) {
		c.Model = ModelFluid
	})
	done := false
	// 60 packets at 1 Gb/s ≈ 720 us; cut at 240 us ≈ one third through.
	if err := n.TransferPackets(hosts[0], hosts[1], 90_000, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	l := linkOf(t, n, hosts[0])
	eng.After(240*simtime.Microsecond, func() {
		if err := n.SetLinkAdmin(l.id, false); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if !done {
		t.Fatal("completion callback did not fire on failure")
	}
	st := n.Stats()
	if st.PacketsSent != 60 {
		t.Fatalf("sent = %d, want 60", st.PacketsSent)
	}
	if st.PacketsDropped == 0 || st.PacketsDelivered == 0 {
		t.Errorf("expected partial delivery, got delivered %d dropped %d",
			st.PacketsDelivered, st.PacketsDropped)
	}
	if st.FlowsFailed != 1 {
		t.Errorf("FlowsFailed = %d, want 1", st.FlowsFailed)
	}
	reconcile(t, n)
}
