package network

import (
	"math"
	"testing"
	"testing/quick"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

func starNet(t *testing.T, hosts int, mutate func(*Config)) (*engine.Engine, *Network, []topology.NodeID) {
	t.Helper()
	g, err := topology.Star{Hosts: hosts, RateBps: 1e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.Cisco2960_24())
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := New(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, n, g.Hosts()
}

func TestSingleFlowTiming(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	var doneAt simtime.Time
	// 125 MB over a 1 Gb/s path: exactly 1 second.
	err := n.TransferFlow(hosts[0], hosts[1], 125_000_000, func() { doneAt = eng.Now() })
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if math.Abs((doneAt - simtime.Second).Seconds()) > 1e-6 {
		t.Errorf("flow finished at %v, want ~1s", doneAt)
	}
	st := n.Stats()
	if st.FlowsCompleted != 1 || st.BytesDelivered != 125_000_000 {
		t.Errorf("stats = %+v", st)
	}
}

// TestFlowPastClockEndNeverCompletes: a flow whose completion lies past
// the clock's end (2^62 bytes at 125 MB/s is ~3.7e10 s; the clock ends
// near 9.22e9 s) gets no completion event. It used to wrap to a negative
// instant and panic the engine on every re-rate. A flow beside it still
// completes at its own instant, re-rating the first one.
func TestFlowPastClockEndNeverCompletes(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	err := n.TransferFlow(hosts[0], hosts[1], 1<<62, func() { t.Error("a flow past the clock's end completed") })
	if err != nil {
		t.Fatal(err)
	}
	var doneAt simtime.Time
	// Shares host0's uplink at 62.5 MB/s: 62.5 MB take one second.
	if err := n.TransferFlow(hosts[0], hosts[2], 62_500_000, func() { doneAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if doneAt != simtime.Second {
		t.Errorf("the in-range flow finished at %v, want 1s", doneAt)
	}
	if n.ActiveFlows() != 1 || n.Stats().FlowsCompleted != 1 {
		t.Errorf("%d flows active, %d completed; want the long one still active", n.ActiveFlows(), n.Stats().FlowsCompleted)
	}
}

func TestTwoFlowsShareLink(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	var t1, t2 simtime.Time
	// Both flows leave host0: they share host0's uplink at 62.5 MB/s each.
	n.TransferFlow(hosts[0], hosts[1], 62_500_000, func() { t1 = eng.Now() })
	n.TransferFlow(hosts[0], hosts[2], 62_500_000, func() { t2 = eng.Now() })
	eng.Run()
	// Equal halves of 125 MB/s: both complete at ~1s.
	if math.Abs((t1-simtime.Second).Seconds()) > 1e-6 || math.Abs((t2-simtime.Second).Seconds()) > 1e-6 {
		t.Errorf("flows finished at %v, %v, want ~1s both", t1, t2)
	}
}

func TestFlowRateRecomputedOnDeparture(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	var tShort, tLong simtime.Time
	// Short flow shares the first half second; long flow then speeds up.
	n.TransferFlow(hosts[0], hosts[1], 31_250_000, func() { tShort = eng.Now() }) // 1/4 of 125MB
	n.TransferFlow(hosts[0], hosts[2], 93_750_000, func() { tLong = eng.Now() })  // 3/4
	eng.Run()
	// Shared at 62.5 MB/s: short done at 0.5s. Long has 62.5MB left at
	// 0.5s, then gets full 125 MB/s: +0.5s => 1.0s.
	if math.Abs((tShort - 500*simtime.Millisecond).Seconds()) > 1e-6 {
		t.Errorf("short flow at %v, want ~0.5s", tShort)
	}
	if math.Abs((tLong - simtime.Second).Seconds()) > 1e-6 {
		t.Errorf("long flow at %v, want ~1s", tLong)
	}
}

func TestDisjointFlowsIndependent(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	var t1, t2 simtime.Time
	n.TransferFlow(hosts[0], hosts[1], 125_000_000, func() { t1 = eng.Now() })
	n.TransferFlow(hosts[2], hosts[3], 125_000_000, func() { t2 = eng.Now() })
	eng.Run()
	// Different host pairs: no shared link in a star (4 distinct links).
	if math.Abs((t1-simtime.Second).Seconds()) > 1e-6 || math.Abs((t2-simtime.Second).Seconds()) > 1e-6 {
		t.Errorf("flows finished at %v, %v, want ~1s both", t1, t2)
	}
}

func TestMaxMinFairnessDumbbell(t *testing.T) {
	// Custom graph: h0--s0--s1--h1, plus h2--s0 and h3--s1. The s0-s1
	// link is the bottleneck shared by two flows; a third flow on a
	// disjoint path keeps full rate.
	g := topology.NewGraph(false)
	h0 := g.AddNode(topology.Host, "h0")
	h1 := g.AddNode(topology.Host, "h1")
	h2 := g.AddNode(topology.Host, "h2")
	h3 := g.AddNode(topology.Host, "h3")
	s0 := g.AddNode(topology.Switch, "s0")
	s1 := g.AddNode(topology.Switch, "s1")
	for _, pair := range [][2]topology.NodeID{{h0, s0}, {h2, s0}, {h1, s1}, {h3, s1}} {
		if _, err := g.AddLink(pair[0], pair[1], 1e9); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddLink(s0, s1, 1e9); err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	n, err := New(eng, g, DefaultConfig(power.Cisco2960_24()))
	if err != nil {
		t.Fatal(err)
	}
	var tA, tB simtime.Time
	// Two flows cross the bottleneck: 62.5 MB each at 62.5 MB/s = 1s.
	n.TransferFlow(h0, h1, 62_500_000, func() { tA = eng.Now() })
	n.TransferFlow(h2, h3, 62_500_000, func() { tB = eng.Now() })
	eng.Run()
	if math.Abs((tA-simtime.Second).Seconds()) > 1e-6 || math.Abs((tB-simtime.Second).Seconds()) > 1e-6 {
		t.Errorf("bottleneck flows at %v, %v, want ~1s", tA, tB)
	}
}

func TestSameNodeTransferCompletes(t *testing.T) {
	eng, n, hosts := starNet(t, 2, nil)
	flowDone, pktDone := false, false
	n.TransferFlow(hosts[0], hosts[0], 1000, func() { flowDone = true })
	n.TransferPackets(hosts[1], hosts[1], 1000, func() { pktDone = true })
	eng.Run()
	if !flowDone || !pktDone {
		t.Error("same-node transfers did not complete")
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	_, n, hosts := starNet(t, 2, nil)
	if err := n.TransferFlow(hosts[0], hosts[1], -1, nil); err == nil {
		t.Error("negative flow accepted")
	}
	if err := n.TransferPackets(hosts[0], hosts[1], -1, nil); err == nil {
		t.Error("negative packet transfer accepted")
	}
}

func TestPacketDelivery(t *testing.T) {
	eng, n, hosts := starNet(t, 4, nil)
	var doneAt simtime.Time
	// 3000 bytes = 2 packets of 1500.
	n.TransferPackets(hosts[0], hosts[1], 3000, func() { doneAt = eng.Now() })
	eng.Run()
	st := n.Stats()
	if st.PacketsDelivered != 2 || st.PacketsDropped != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.BytesDelivered != 3000 {
		t.Errorf("bytes = %d", st.BytesDelivered)
	}
	// Timing: ser = 12us/packet/hop. Pipeline over 2 hops: second packet
	// finishes hop1 at 24us, hop2 at 36us, plus 2 props (0.5us) and a
	// switch latency (1us) => 38us.
	want := 38 * simtime.Microsecond
	if doneAt != want {
		t.Errorf("delivered at %v, want %v", doneAt, want)
	}
}

func TestPacketDrops(t *testing.T) {
	eng, n, hosts := starNet(t, 4, func(c *Config) {
		c.PortBufferBytes = 4000 // fits ~2 queued packets
	})
	done := false
	// 30 packets burst into one 1G link: most queue, buffer drops the rest.
	n.TransferPackets(hosts[0], hosts[1], 45_000, func() { done = true })
	eng.Run()
	st := n.Stats()
	if st.PacketsDropped == 0 {
		t.Error("expected drops with tiny buffer")
	}
	if st.PacketsDelivered+st.PacketsDropped != 30 {
		t.Errorf("delivered %d + dropped %d != 30", st.PacketsDelivered, st.PacketsDropped)
	}
	if !done {
		t.Error("transfer did not complete despite drops")
	}
	if n.Drops() != st.PacketsDropped {
		t.Errorf("Drops() = %d, stats = %d", n.Drops(), st.PacketsDropped)
	}
}

func TestLPITransitions(t *testing.T) {
	eng, n, hosts := starNet(t, 24, nil)
	sw := n.Switches()[0]
	// All ports active at t=0, fall into LPI after 50us idle.
	eng.RunUntil(simtime.Millisecond)
	for i, st := range sw.PortStates() {
		if st != power.PortLPI {
			t.Fatalf("port %d = %v, want LPI", i, st)
		}
	}
	// Idle draw: 14.7 base + 24 ports * 0.03 LPI.
	wantIdle := 14.7 + 24*0.03
	if got := n.NetworkPowerW(); math.Abs(got-wantIdle) > 1e-9 {
		t.Errorf("LPI power = %v, want %v", got, wantIdle)
	}
	// Traffic wakes the two ports on the path. By +25us the packet has
	// crossed hop 1 (5us LPI wake + 12us serialization + propagation +
	// switching) and is serializing on hop 2, so both ports are active.
	n.TransferPackets(hosts[0], hosts[1], 1500, nil)
	eng.RunUntil(simtime.Millisecond + 25*simtime.Microsecond)
	if sw.ActivePorts() != 2 {
		t.Errorf("active ports = %d, want 2", sw.ActivePorts())
	}
	// After the transfer and LPI timeout they fall back.
	eng.RunUntil(2 * simtime.Second)
	if sw.ActivePorts() != 0 {
		t.Errorf("active ports after idle = %d", sw.ActivePorts())
	}
}

func TestAllPortsActivePower(t *testing.T) {
	eng, n, hosts := starNet(t, 24, func(c *Config) {
		c.LPIIdle = -1 // LPI disabled: ports stay active
	})
	_ = hosts
	eng.RunUntil(simtime.Second)
	want := 14.7 + 24*0.23 // paper's base + per-port figures
	if got := n.NetworkPowerW(); math.Abs(got-want) > 1e-9 {
		t.Errorf("all-active power = %v, want %v", got, want)
	}
}

func TestSwitchSleepAndWake(t *testing.T) {
	eng, n, hosts := starNet(t, 4, func(c *Config) {
		c.SwitchSleepIdle = simtime.Millisecond
	})
	sw := n.Switches()[0]
	eng.RunUntil(10 * simtime.Millisecond)
	if !sw.sleeping {
		t.Fatal("switch did not sleep")
	}
	// Sleep draw: chassis + line card sleep.
	want := 12.7 + 0.4
	if got := watts(&sw.meter); math.Abs(got-want) > 1e-9 {
		t.Errorf("sleep power = %v, want %v", got, want)
	}
	if n.SleepingSwitchesOnPath(hosts[0], hosts[1]) != 1 {
		t.Error("SleepingSwitchesOnPath != 1")
	}
	// A flow wakes it; completion time includes the line-card wake (2ms).
	var doneAt simtime.Time
	start := eng.Now()
	n.TransferFlow(hosts[0], hosts[1], 12_500_000, func() { doneAt = eng.Now() }) // 0.1s at 1G
	eng.RunUntil(start + 50*simtime.Millisecond)                                  // mid-flow
	if sw.sleeping {
		t.Error("switch still sleeping during flow")
	}
	if n.SleepingSwitchesOnPath(hosts[0], hosts[1]) != 0 {
		t.Error("awake switch still counted as sleeping")
	}
	eng.RunUntil(start + simtime.Second)
	wantDone := start + 2*simtime.Millisecond + 100*simtime.Millisecond
	if math.Abs((doneAt - wantDone).Seconds()) > 1e-6 {
		t.Errorf("flow done at %v, want %v", doneAt, wantDone)
	}
	if sw.WakeCount() != 1 {
		t.Errorf("WakeCount = %d", sw.WakeCount())
	}
	// Once idle again, the switch re-enters sleep.
	if !sw.sleeping {
		t.Error("switch did not re-sleep after the flow drained")
	}
	// Residency must show all three states.
	res := &sw.residency
	end := eng.Now()
	for _, state := range []string{SwitchStateActive, SwitchStateWake, SwitchStateSleep} {
		if res.DurationTo(state, end) <= 0 {
			t.Errorf("no %s residency", state)
		}
	}
}

func TestECMPSpreadsFlows(t *testing.T) {
	g, err := topology.FatTree{K: 4, RateBps: 1e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.ECMP = true
	n, err := New(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	// Many concurrent cross-pod flows: with ECMP they use several cores,
	// so aggregate completion is faster than single-path serialization.
	const flows = 8
	done := 0
	for i := 0; i < flows; i++ {
		n.TransferFlow(hosts[0], hosts[12+i%4], 12_500_000, func() { done++ })
	}
	eng.Run()
	if done != flows {
		t.Errorf("completions = %d", done)
	}
}

func TestProfilePortShortageRejected(t *testing.T) {
	g, err := topology.Star{Hosts: 30, RateBps: 1e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	// Cisco profile has 24 ports; a 30-host star needs 30.
	if _, err := New(eng, g, DefaultConfig(power.Cisco2960_24())); err == nil {
		t.Error("port shortage accepted")
	}
}

func TestServerOnlyTopologyNoSwitchPower(t *testing.T) {
	g, err := topology.CamCube{X: 2, Y: 2, Z: 2, RateBps: 1e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	n, err := New(eng, g, DefaultConfig(power.Cisco2960_24()))
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Switches()) != 0 {
		t.Errorf("switches = %d", len(n.Switches()))
	}
	if n.NetworkPowerW() != 0 {
		t.Errorf("power = %v", n.NetworkPowerW())
	}
	// Host-relayed packet transfer still works.
	hosts := g.Hosts()
	done := false
	n.TransferPackets(hosts[0], hosts[7], 3000, func() { done = true })
	eng.Run()
	if !done {
		t.Error("CamCube transfer did not complete")
	}
}

// Property: for any batch of flows between random star hosts, every flow
// completes and bytes are conserved.
func TestFlowConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := topology.Star{Hosts: 8, RateBps: 1e9}.Build()
		if err != nil {
			return false
		}
		eng := engine.New()
		n, err := New(eng, g, DefaultConfig(power.Cisco2960_24()))
		if err != nil {
			return false
		}
		hosts := g.Hosts()
		x := seed
		var total int64
		completed := 0
		launched := 0
		for i := 0; i < 15; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			src := hosts[x%8]
			x = x*6364136223846793005 + 1442695040888963407
			dst := hosts[x%8]
			if src == dst {
				continue
			}
			size := int64(1000 + x%1_000_000)
			total += size
			launched++
			n.TransferFlow(src, dst, size, func() { completed++ })
		}
		eng.Run()
		st := n.Stats()
		return completed == launched && st.BytesDelivered == total && n.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: packet transfers deliver ceil(bytes/MTU) packets when
// buffers are ample.
func TestPacketCountProperty(t *testing.T) {
	f := func(sz uint32) bool {
		bytes := int64(sz%200_000) + 1
		g, err := topology.Star{Hosts: 2, RateBps: 1e9}.Build()
		if err != nil {
			return false
		}
		eng := engine.New()
		cfg := DefaultConfig(power.Cisco2960_24())
		cfg.PortBufferBytes = 1 << 30
		n, err := New(eng, g, cfg)
		if err != nil {
			return false
		}
		hosts := g.Hosts()
		done := false
		n.TransferPackets(hosts[0], hosts[1], bytes, func() { done = true })
		eng.Run()
		want := (bytes + 1499) / 1500
		st := n.Stats()
		return done && st.PacketsDelivered == want && st.BytesDelivered == bytes && st.PacketsDropped == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
