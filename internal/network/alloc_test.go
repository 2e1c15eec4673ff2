//go:build !race

package network

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// TestPacketForwardingZeroAlloc is the alloc-regression gate for the
// packet fast path: after warmup (pools filled, routes cached, engine
// heap at capacity), sending dag-packet's 64 KiB edge — a 44-packet
// burst into one egress ring — across the fat-tree must not allocate at
// all. Excluded from -race builds, whose instrumentation allocates on
// its own.
func TestPacketForwardingZeroAlloc(t *testing.T) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.PortBufferBytes = 1 << 30
	n, err := New(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	op := func() {
		if err := n.TransferPackets(hosts[0], hosts[15], 64<<10, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < 200; i++ {
		op() // warm the packet/transfer pools, route cache and event heap
	}
	if avg := testing.AllocsPerRun(200, op); avg != 0 {
		t.Fatalf("packet forwarding allocates %.2f allocs/op, want 0", avg)
	}
}

// TestSwitchSleepWakeZeroAlloc gates the switch power path under packet
// traffic: with a 1 ms sleep threshold every switch on the route sleeps
// between transfers, so each transfer wakes them (the switch is its
// wake-up event's handler), crosses the fabric once they are up, and
// lets them idle back to sleep — and allocates nothing.
func TestSwitchSleepWakeZeroAlloc(t *testing.T) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.PortBufferBytes = 1 << 30
	cfg.SwitchSleepIdle = simtime.Millisecond
	n, err := New(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	op := func() {
		if err := n.TransferPackets(hosts[0], hosts[15], 64<<10, nil); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < 200; i++ {
		op()
	}
	wakes := func() (w int64) {
		for _, sw := range n.Switches() {
			w += sw.WakeCount()
		}
		return w
	}
	before := wakes()
	if avg := testing.AllocsPerRun(200, op); avg != 0 {
		t.Fatalf("a switch sleep and wake cycle allocates %.2f allocs/op, want 0", avg)
	}
	// Five switches on the route, woken by each of the 201 ops.
	if got := wakes() - before; got != 5*201 {
		t.Fatalf("%d switch wakes over 201 transfers, want %d", got, 5*201)
	}
}

// TestFluidTransferZeroAlloc is the same gate for the fluid model: with
// eight long background flows sharing the fabric, a transfer between two
// route-cached hosts — flow start, two re-rates of all nine flows, flow
// completion — must not allocate once the flow pool, the links'
// water-filling records and the event heap have reached working size.
func TestFluidTransferZeroAlloc(t *testing.T) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.Model = ModelFluid
	n, err := New(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	for i := 0; i < 8; i++ {
		// Far too large to finish during the test.
		if err := n.TransferPackets(hosts[i], hosts[15-i], 1<<40, nil); err != nil {
			t.Fatal(err)
		}
	}
	finished := false
	done := func() { finished = true }
	op := func() {
		finished = false
		if err := n.TransferPackets(hosts[0], hosts[15], 64<<10, done); err != nil {
			t.Fatal(err)
		}
		for !finished && eng.Step() {
		}
	}
	for i := 0; i < 200; i++ {
		op()
	}
	if n.ActiveFlows() != 8 {
		t.Fatalf("%d flows active after warm-up, want the 8 background flows", n.ActiveFlows())
	}
	if avg := testing.AllocsPerRun(200, op); avg != 0 {
		t.Fatalf("fluid transfer allocates %.2f allocs/op, want 0", avg)
	}
}

// TestUncachedRouteZeroAlloc is the gate for route resolution: a
// transfer between hosts the route cache has not seen walks the graph's
// cached hop vector into the network's buffers and carves its route
// from the slab, so once every destination's hop vector exists, 200
// transfers between fresh pairs of a 128-host fat-tree allocate only
// slab chunks and route-map growth — 0 per transfer after the
// average's integer division — in both network models. The sleeping-
// switch count of the network-aware placer walks a route in the same
// buffers and allocates nothing at all.
func TestUncachedRouteZeroAlloc(t *testing.T) {
	for _, model := range []NetModel{ModelPacket, ModelFluid} {
		g, err := topology.FatTree{K: 8, RateBps: 10e9}.Build()
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New()
		cfg := DefaultConfig(power.DataCenter10G(8))
		cfg.Model = model
		cfg.PortBufferBytes = 1 << 30
		n, err := New(eng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		last := len(hosts) - 1
		send := func(src, dst topology.NodeID) {
			if err := n.TransferPackets(src, dst, 64<<10, nil); err != nil {
				t.Fatal(err)
			}
			eng.Run()
		}
		// Every destination's hop vector, the pools and the engine heap,
		// from the last host (and to it), whose pairs the ops never use.
		for _, dst := range hosts[:last] {
			send(hosts[last], dst)
		}
		send(hosts[0], hosts[last])
		next := len(hosts) // pair index: src = next / last, dst skips src
		op := func() {
			src, dst := next/last, next%last
			if dst >= src {
				dst++
			}
			next++
			send(hosts[src], hosts[dst])
		}
		for i := 0; i < 200; i++ {
			op()
		}
		routes := len(n.routes)
		if avg := testing.AllocsPerRun(200, op); avg != 0 {
			t.Fatalf("%v: an uncached route allocates %.2f allocs/op, want 0", model, avg)
		}
		if len(n.routes) != routes+201 {
			t.Fatalf("%v: %d routes cached over 201 fresh pairs, want %d", model, len(n.routes)-routes, 201)
		}
		if avg := testing.AllocsPerRun(200, func() { n.SleepingSwitchesOnPath(hosts[3], hosts[90]) }); avg != 0 {
			t.Fatalf("%v: the sleeping-switch count allocates %.2f allocs/op, want 0", model, avg)
		}
	}
}

// TestECMPTransferZeroAlloc gates ECMP routes, which depend on each
// transfer's flow id and so are never cached: a transfer across pods of
// a K=4 fat-tree takes a route from the network's pool and returns it
// when it finishes, so once the pool holds one, a packet transfer and a
// fluid one (among eight background flows) allocate nothing.
func TestECMPTransferZeroAlloc(t *testing.T) {
	for _, model := range []NetModel{ModelPacket, ModelFluid} {
		g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
		if err != nil {
			t.Fatal(err)
		}
		eng := engine.New()
		cfg := DefaultConfig(power.DataCenter10G(8))
		cfg.Model = model
		cfg.ECMP = true
		cfg.PortBufferBytes = 1 << 30
		n, err := New(eng, g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hosts := g.Hosts()
		if model == ModelFluid {
			for i := 1; i < 9; i++ {
				// Far too large to finish during the test.
				if err := n.TransferPackets(hosts[i], hosts[15-i], 1<<40, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		finished := false
		done := func() { finished = true }
		op := func() {
			finished = false
			if err := n.TransferPackets(hosts[0], hosts[15], 64<<10, done); err != nil {
				t.Fatal(err)
			}
			for !finished && eng.Step() {
			}
		}
		// The warm-up also checks that the routes are ECMP's: the pool
		// holds the one route a finished transfer returned, and the
		// transfers between the one pair crossed more than one core
		// switch.
		cores := map[*linkState]bool{}
		for i := 0; i < 200; i++ {
			op()
			if len(n.routeFree) != 1 || len(n.routes) != 0 {
				t.Fatalf("%v: %d pooled and %d cached routes after a transfer, want 1 and 0",
					model, len(n.routeFree), len(n.routes))
			}
			cores[n.routeFree[0].links[2]] = true
		}
		if len(cores) < 2 {
			t.Fatalf("%v: 200 ECMP transfers took %d agg-to-core links, want more than one", model, len(cores))
		}
		if avg := testing.AllocsPerRun(200, op); avg != 0 {
			t.Fatalf("%v: an ECMP transfer allocates %.2f allocs/op, want 0", model, avg)
		}
	}
}

// TestFlowLoopbackZeroAlloc gates TransferFlow's routeless path: a
// same-node transfer and a zero-byte one each ride a pooled flow to the
// next event-loop tick, deliver their bytes there and never count as
// started flows, with no closure made per call.
func TestFlowLoopbackZeroAlloc(t *testing.T) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	n, err := New(eng, g, DefaultConfig(power.DataCenter10G(8)))
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	calls := 0
	done := func() { calls++ }
	op := func() {
		if err := n.TransferFlow(hosts[0], hosts[0], 4096, done); err != nil {
			t.Fatal(err)
		}
		if err := n.TransferFlow(hosts[1], hosts[2], 0, done); err != nil {
			t.Fatal(err)
		}
		eng.Run()
	}
	for i := 0; i < 200; i++ {
		op()
	}
	if avg := testing.AllocsPerRun(200, op); avg != 0 {
		t.Fatalf("a routeless TransferFlow allocates %.2f allocs/op, want 0", avg)
	}
	// 200 warm-up ops, the average's extra warm-up op and 200 measured.
	const ops = 401
	if st := n.Stats(); calls != 2*ops || st.BytesDelivered != ops*4096 || st.FlowsStarted != 0 || len(n.flowFree) != 2 {
		t.Fatalf("%d callbacks, stats %+v, %d pooled flows; want %d callbacks, %d bytes, no flow started, 2 pooled",
			calls, st, len(n.flowFree), 2*ops, ops*4096)
	}
}
