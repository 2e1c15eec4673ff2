package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
	"holdcsim/internal/trace"
	"holdcsim/internal/workload"
)

// traceEmpty is a zero-arrival trace for instant-end runs.
var traceEmpty = trace.Trace{}

// assertFiniteFloats walks v recursively and fails on any NaN or ±Inf
// float64 — the contract for Results of degenerate runs: zero-job
// summaries must render as zeros, never as NaN.
func assertFiniteFloats(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Float64, reflect.Float32:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Errorf("%s = %g", path, f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				assertFiniteFloats(t, v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			assertFiniteFloats(t, v.Index(i), path+"[i]")
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			assertFiniteFloats(t, v.MapIndex(k), path+"[k]")
		}
	case reflect.Pointer:
		if !v.IsNil() {
			assertFiniteFloats(t, v.Elem(), path)
		}
	}
}

// zeroJobConfig is a horizon-only run: a positive duration with a zero
// arrival rate, so not a single job is ever generated.
func zeroJobConfig() Config {
	return Config{
		Seed:         3,
		Servers:      2,
		ServerConfig: server.DefaultConfig(power.FourCoreServer()),
		Arrivals:     workload.Poisson{Rate: 0},
		Factory:      workload.SingleTask{Service: workload.WebSearchService()},
		Duration:     simtime.FromSeconds(1),
		Check:        true,
	}
}

// TestZeroJobRunResultsFinite: a run that completes zero jobs must
// produce fully finite results — latency summaries at zero, energy and
// residency intact — and pass every invariant (the conservation laws
// hold trivially but the accounting closure is still exercised).
func TestZeroJobRunResultsFinite(t *testing.T) {
	dc, err := Build(zeroJobConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatalf("invariants on a zero-job run: %v", err)
	}
	if res.JobsGenerated != 0 || res.JobsCompleted != 0 {
		t.Fatalf("expected a zero-job run, got %d/%d", res.JobsCompleted, res.JobsGenerated)
	}
	assertFiniteFloats(t, reflect.ValueOf(res).Elem(), "Results")
	for _, f := range []float64{
		res.Latency.Mean(), res.Latency.StdDev(), res.Latency.Min(), res.Latency.Max(),
		res.Latency.Percentile(50), res.Latency.Percentile(99),
	} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			t.Errorf("empty latency tally leaked non-finite value %g", f)
		}
	}
	if s := res.String(); strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("summary renders non-finite values: %s", s)
	}
	// Energy must still accrue: an idle farm draws idle power.
	if res.ServerEnergyJ <= 0 {
		t.Errorf("idle farm accrued no energy: %g J", res.ServerEnergyJ)
	}
	if res.MeanServerPowerW <= 0 {
		t.Errorf("mean power %g W on a 1 s idle run", res.MeanServerPowerW)
	}
}

// TestZeroJobNetworkRun: the same degenerate horizon with a network
// attached — flow/packet conservation laws hold vacuously and network
// summaries stay finite.
func TestZeroJobNetworkRun(t *testing.T) {
	cfg := zeroJobConfig()
	cfg.Topology = topology.Star{Hosts: 4}
	cfg.NetworkConfig = network.DefaultConfig(power.Cisco2960_24())
	cfg.CommMode = CommFlow
	cfg.Placer = sched.LeastLoaded{}
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatalf("invariants: %v", err)
	}
	assertFiniteFloats(t, reflect.ValueOf(res).Elem(), "Results")
	if res.NetworkEnergyJ <= 0 {
		t.Errorf("idle switch accrued no energy: %g J", res.NetworkEnergyJ)
	}
}

// TestEmptyTraceRun: an empty replay trace with no duration bound — the
// run ends as soon as the idle governors settle, a near-zero horizon
// that squeezes every division-by-duration edge. Everything must stay
// finite.
func TestEmptyTraceRun(t *testing.T) {
	cfg := zeroJobConfig()
	cfg.Duration = 0
	cfg.Arrivals = workload.NewTraceReplay(&traceEmpty)
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// No workload: only the C-state governors' millisecond-scale idle
	// stepping can advance the clock.
	if res.End > simtime.Second {
		t.Fatalf("End = %v on an empty-trace run", res.End)
	}
	assertFiniteFloats(t, reflect.ValueOf(res).Elem(), "Results")
}

// TestPacketDropsConservation: packet mode with starved egress buffers
// must drop packets — and the invariant checker's packet-conservation
// law (delivered + dropped = sent) must hold through the drops, with
// every DAG still completing (drop accounting keeps jobs from
// deadlocking).
func TestPacketDropsConservation(t *testing.T) {
	ncfg := network.DefaultConfig(power.Cisco2960_24())
	ncfg.PortBufferBytes = 3000 // ~2 MTUs: forces drops under fan-in
	cfg := Config{
		Seed:          5,
		Servers:       8,
		ServerConfig:  server.DefaultConfig(power.FourCoreServer()),
		Topology:      topology.Star{Hosts: 8},
		NetworkConfig: ncfg,
		CommMode:      CommPacket,
		Placer:        sched.RoundRobin{},
		Arrivals:      workload.Poisson{Rate: 400},
		Factory: workload.TwoTier{
			AppService: workload.WebSearchService(),
			DBService:  workload.WebSearchService(),
			Bytes:      64 << 10,
		},
		MaxJobs: 200,
		Check:   true,
	}
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatalf("invariants under packet drops: %v", err)
	}
	if res.NetStats.PacketsDropped == 0 {
		t.Fatal("buffer starvation produced no drops; the scenario no longer exercises the drop path")
	}
	if res.JobsCompleted != res.JobsGenerated {
		t.Fatalf("drops deadlocked DAGs: %d of %d jobs completed",
			res.JobsCompleted, res.JobsGenerated)
	}
	if got := res.NetStats.PacketsDelivered + res.NetStats.PacketsDropped; got != res.NetStats.PacketsSent {
		t.Fatalf("packet conservation: delivered+dropped = %d, sent = %d", got, res.NetStats.PacketsSent)
	}
}
