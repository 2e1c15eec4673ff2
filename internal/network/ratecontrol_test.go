package network

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

func TestRateAdaptationStepsUpUnderLoad(t *testing.T) {
	g, err := topology.Star{Hosts: 2, RateBps: 1e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.Cisco2960_24())
	cfg.LPIIdle = -1
	cfg.PortBufferBytes = 1 << 30
	n, err := New(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.EnableRateAdaptation(RateAdaptationConfig{
		Window:   10 * simtime.Millisecond,
		LowUtil:  0.10,
		HighUtil: 0.60,
	})
	sw := n.Switches()[0]
	hosts := g.Hosts()

	// Phase 1: idle. All connected ports step down to 100 Mb/s.
	eng.RunUntil(50 * simtime.Millisecond)
	for _, p := range sw.ports {
		if p.link != nil && p.rateIdx != 0 {
			t.Fatalf("idle port did not step down: rateIdx=%d", p.rateIdx)
		}
	}

	// Phase 2: sustained heavy traffic. At 100 Mb/s the link saturates
	// (utilization ~1 > HighUtil), so the controller steps back up.
	stop := false
	var pump func()
	pump = func() {
		if stop {
			return
		}
		n.TransferPackets(hosts[0], hosts[1], 150_000, nil) // 100 pkts
		eng.After(5*simtime.Millisecond, pump)
	}
	eng.Schedule(eng.Now(), pump)
	eng.RunUntil(eng.Now() + 200*simtime.Millisecond)
	stop = true
	stepped := false
	for _, p := range sw.ports {
		if p.link != nil && p.rateIdx == len(power.Cisco2960_24().LinkRatesBps)-1 {
			stepped = true
		}
	}
	if !stepped {
		t.Error("no port stepped back up under sustained load")
	}
	eng.RunUntil(eng.Now() + simtime.Second)
}

func TestFlowRatesFollowALRChanges(t *testing.T) {
	// A long flow over a link whose port steps down mid-flight must
	// finish later than the full-rate estimate.
	g, err := topology.Star{Hosts: 2, RateBps: 1e9}.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New()
	cfg := DefaultConfig(power.Cisco2960_24())
	cfg.LPIIdle = -1
	n, err := New(eng, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	sw := n.Switches()[0]

	var doneAt simtime.Time
	// 125 MB at 1 Gb/s would take 1 s.
	n.TransferFlow(hosts[0], hosts[1], 125_000_000, func() { doneAt = eng.Now() })
	// Force both path ports down to 100 Mb/s at t=100ms (simulating an
	// ALR decision); the re-rate must slow the flow by ~10x.
	eng.Schedule(100*simtime.Millisecond, func() {
		for _, p := range sw.ports {
			if p.link != nil {
				p.setRateIdx(0)
			}
		}
		n.recomputeFlowRates()
	})
	eng.Run()
	// 12.5 MB done in the first 100ms; remaining 112.5 MB at 12.5 MB/s
	// = 9s more.
	want := 100*simtime.Millisecond + 9*simtime.Second
	diff := doneAt - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*simtime.Millisecond {
		t.Errorf("flow finished at %v, want ~%v", doneAt, want)
	}
}
