package network

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

func BenchmarkWaterFill(b *testing.B) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.ECMP = true
	n, err := New(eng, g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	// 64 long-lived crossing flows.
	for i := 0; i < 64; i++ {
		if err := n.TransferFlow(hosts[i%16], hosts[(i*7+3)%16], 1<<40, nil); err != nil {
			b.Fatal(err)
		}
	}
	eng.RunUntil(simtime.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.recomputeFlowRates()
	}
}

func BenchmarkPacketForwarding(b *testing.B) {
	g, err := topology.FatTree{K: 4, RateBps: 10e9}.Build()
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.DataCenter10G(8))
	cfg.PortBufferBytes = 1 << 30
	n, err := New(eng, g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	hosts := g.Hosts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One MTU packet across the fabric (6 hops worst case).
		if err := n.TransferPackets(hosts[0], hosts[15], 1500, nil); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}
