package network

import (
	"testing"

	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// linkBetween finds the link id joining two nodes.
func linkBetween(t *testing.T, n *Network, a, b topology.NodeID) int {
	t.Helper()
	for i := 0; i < n.NumLinks(); i++ {
		l := n.g.Link(i)
		if (l.A == a && l.B == b) || (l.A == b && l.B == a) {
			return i
		}
	}
	t.Fatalf("no link between %d and %d", a, b)
	return -1
}

// TestLinkFlapDropsInFlightPackets: cutting a link mid-transfer drops
// the queued and in-flight packets, the completion callback still
// fires, and every conservation counter closes (delivered + dropped ==
// sent, egress drops == stats drops).
func TestLinkFlapDropsInFlightPackets(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	done := false
	// 150 KB = 100 MTUs over 1 Gb/s: ~1.2 ms serialization end to end.
	if err := n.TransferPackets(hosts[0], hosts[1], 150_000, func() { done = true }); err != nil {
		t.Fatal(err)
	}
	link := linkBetween(t, n, hosts[0], n.g.Switches()[0])
	eng.Schedule(300*simtime.Microsecond, func() {
		if err := n.SetLinkAdmin(link, false); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	if !done {
		t.Fatal("transfer completion never fired after the flap")
	}
	st := n.Stats()
	if st.PacketsSent != 100 {
		t.Fatalf("sent = %d, want 100", st.PacketsSent)
	}
	if st.PacketsDropped == 0 || st.PacketsDelivered == 0 {
		t.Fatalf("expected both deliveries and drops around the cut: %+v", st)
	}
	if st.PacketsDelivered+st.PacketsDropped != st.PacketsSent {
		t.Errorf("delivered %d + dropped %d != sent %d",
			st.PacketsDelivered, st.PacketsDropped, st.PacketsSent)
	}
	if d := n.Drops(); d != st.PacketsDropped {
		t.Errorf("egress drops %d != stats drops %d", d, st.PacketsDropped)
	}
	if n.OpenPacketTransfers() != 0 {
		t.Errorf("open transfers = %d at end", n.OpenPacketTransfers())
	}
}

// TestLinkRestoreCarriesTraffic: a flapped link carries traffic again
// after restore with no residue from the outage.
func TestLinkRestoreCarriesTraffic(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	link := linkBetween(t, n, hosts[0], n.g.Switches()[0])
	if err := n.SetLinkAdmin(link, false); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(simtime.Millisecond, func() {
		if err := n.SetLinkAdmin(link, true); err != nil {
			t.Fatal(err)
		}
	})
	delivered := false
	eng.Schedule(2*simtime.Millisecond, func() {
		if err := n.TransferPackets(hosts[0], hosts[1], 3000, func() { delivered = true }); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	st := n.Stats()
	if !delivered || st.PacketsDropped != 0 {
		t.Fatalf("post-restore transfer: delivered=%v stats=%+v", delivered, st)
	}
}

// TestLinkFlapKillsFlows: a fluid flow crossing a cut link fails —
// completion fires at the cut, partial progress counts as delivered
// bytes, and flow conservation holds.
func TestLinkFlapKillsFlows(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	var doneAt simtime.Time
	// 125 MB at 1 Gb/s = 1 s if undisturbed.
	if err := n.TransferFlow(hosts[0], hosts[1], 125_000_000, func() { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	link := linkBetween(t, n, hosts[0], n.g.Switches()[0])
	eng.Schedule(250*simtime.Millisecond, func() {
		if err := n.SetLinkAdmin(link, false); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	if doneAt != 250*simtime.Millisecond {
		t.Fatalf("flow completion at %v, want the cut instant 250ms", doneAt)
	}
	st := n.Stats()
	if st.FlowsStarted != 1 || st.FlowsCompleted != 1 || st.FlowsFailed != 1 {
		t.Errorf("flow counters %+v", st)
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("active flows = %d after the kill", n.ActiveFlows())
	}
	// ~31.25 MB made it in 250 ms.
	want := int64(125_000_000 / 4)
	if st.BytesDelivered < want-1000 || st.BytesDelivered > want+1000 {
		t.Errorf("bytes delivered %d, want ~%d (partial progress)", st.BytesDelivered, want)
	}
	// A flow started over the dead link fails immediately but still
	// completes its callback.
	failedImmediately := false
	eng.Schedule(eng.Now(), func() {
		if err := n.TransferFlow(hosts[0], hosts[1], 1000, func() { failedImmediately = true }); err != nil {
			t.Fatal(err)
		}
	})
	eng.Run()
	if !failedImmediately {
		t.Error("flow over a dead link never completed")
	}
	if st := n.Stats(); st.FlowsFailed != 2 {
		t.Errorf("FlowsFailed = %d, want 2", st.FlowsFailed)
	}
}

// TestLinkKillFromCompletionCallback: a flow's failure callback cuts a
// second link, killing a flow that the first cut's snapshot still names.
// That flow must fail exactly once (its generation moved, so the outer
// sweep skips it), and a flow the callback starts in a recycled object
// must survive the sweep.
func TestLinkKillFromCompletionCallback(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	hub := n.g.Switches()[0]
	shared := linkBetween(t, n, hosts[0], hub)
	second := linkBetween(t, n, hosts[2], hub)
	calls := [3]int{}
	if err := n.TransferFlow(hosts[0], hosts[1], 125_000_000, func() {
		calls[0]++
		if err := n.SetLinkAdmin(second, false); err != nil {
			t.Error(err)
		}
		// Reuses the object this very callback's flow just vacated.
		if err := n.TransferFlow(hosts[1], hosts[3], 1000, func() { calls[2]++ }); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.TransferFlow(hosts[0], hosts[2], 125_000_000, func() { calls[1]++ }); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(100*simtime.Millisecond, func() {
		if err := n.SetLinkAdmin(shared, false); err != nil {
			t.Error(err)
		}
		if n.ActiveFlows() != 1 {
			t.Errorf("%d flows active after the sweep, want the one the callback started", n.ActiveFlows())
		}
	})
	eng.Run()
	if calls != [3]int{1, 1, 1} {
		t.Errorf("completion callbacks fired %v times, want once each", calls)
	}
	st := n.Stats()
	if st.FlowsStarted != 3 || st.FlowsCompleted != 3 || st.FlowsFailed != 2 || n.ActiveFlows() != 0 {
		t.Errorf("flow counters %+v, %d active", st, n.ActiveFlows())
	}
}

// TestSwitchDeath: killing the hub of a star drops all traffic through
// it, zeroes its power, takes its links down, and revival restores
// both the draw and the data path.
func TestSwitchDeath(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	hub := n.g.Switches()[0]
	sw := n.switches[hub]
	if watts(sw.meter) <= 0 {
		t.Fatal("healthy switch draws nothing")
	}
	var flowDone, pktDone bool
	if err := n.TransferFlow(hosts[0], hosts[1], 125_000_000, func() { flowDone = true }); err != nil {
		t.Fatal(err)
	}
	if err := n.TransferPackets(hosts[2], hosts[3], 150_000, func() { pktDone = true }); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(100*simtime.Microsecond, func() {
		if err := n.SetSwitchAdmin(hub, false); err != nil {
			t.Fatal(err)
		}
		if got := watts(sw.meter); got != 0 {
			t.Errorf("dead switch draws %g W", got)
		}
		for i := 0; i < n.NumLinks(); i++ {
			if !n.links[i].isDown() {
				t.Errorf("link %d still up under a dead hub", i)
			}
		}
	})
	eng.Run()
	if !flowDone || !pktDone {
		t.Fatalf("transfer completions after switch death: flow=%v pkt=%v", flowDone, pktDone)
	}
	st := n.Stats()
	if st.FlowsFailed != 1 {
		t.Errorf("FlowsFailed = %d, want 1", st.FlowsFailed)
	}
	if st.PacketsDelivered+st.PacketsDropped != st.PacketsSent {
		t.Errorf("packet conservation broke: %+v", st)
	}
	if d := n.Drops(); d != st.PacketsDropped {
		t.Errorf("egress drops %d != stats drops %d", d, st.PacketsDropped)
	}

	// Revive: links come back, traffic flows, power returns.
	if err := n.SetSwitchAdmin(hub, true); err != nil {
		t.Fatal(err)
	}
	if sw.Failed() || watts(sw.meter) <= 0 {
		t.Fatalf("revived switch: failed=%v power=%g", sw.Failed(), watts(sw.meter))
	}
	for i := 0; i < n.NumLinks(); i++ {
		if n.links[i].isDown() {
			t.Errorf("link %d still down after revival", i)
		}
	}
	delivered := false
	if err := n.TransferPackets(hosts[0], hosts[1], 3000, func() { delivered = true }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !delivered {
		t.Error("post-revival transfer never delivered")
	}
	// Down time bills to the Down residency state.
	if fr := sw.residency.FractionsTo(eng.Now()); fr[SwitchStateDown] <= 0 {
		t.Errorf("no Down residency recorded: %v", fr)
	}
}

// TestSwitchDeathIdempotentAndRangeChecked: admin calls are no-ops on
// repeated state and reject non-switch nodes and bad link ids.
func TestSwitchDeathIdempotentAndRangeChecked(t *testing.T) {
	_, n, hosts := starNet(t, 4, nil)
	hub := n.g.Switches()[0]
	if err := n.SetSwitchAdmin(hosts[0], false); err == nil {
		t.Error("SetSwitchAdmin accepted a host node")
	}
	if err := n.SetLinkAdmin(99, false); err == nil {
		t.Error("SetLinkAdmin accepted an out-of-range id")
	}
	if err := n.SetSwitchAdmin(hub, false); err != nil {
		t.Fatal(err)
	}
	if err := n.SetSwitchAdmin(hub, false); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := n.SetSwitchAdmin(hub, true); err != nil {
		t.Fatal(err)
	}
	if n.links[0].isDown() {
		t.Error("deadEnds leaked through a double-kill")
	}
}

// TestLinkAdminAccessors pins the admin-state introspection surface.
func TestLinkAdminAccessors(t *testing.T) {
	_, n, _ := starNet(t, 3, nil)
	if n.links[0].isDown() || n.LinkAdminDown(0) {
		t.Error("fresh link reports down")
	}
	if n.LinkAdminDown(-1) || n.LinkAdminDown(999) {
		t.Error("out-of-range link ids report down")
	}
	if err := n.SetLinkAdmin(0, false); err != nil {
		t.Fatal(err)
	}
	if !n.links[0].isDown() || !n.LinkAdminDown(0) {
		t.Error("flapped link not reported down")
	}
	if err := n.SetLinkAdmin(0, false); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := n.SetLinkAdmin(0, true); err != nil {
		t.Fatal(err)
	}
	if n.links[0].isDown() {
		t.Error("restored link still down")
	}
}
