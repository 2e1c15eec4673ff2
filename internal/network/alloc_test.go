//go:build !race

package network

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
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
