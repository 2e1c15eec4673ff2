package core

import (
	"math"
	"strings"
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
	"holdcsim/internal/workload"
)

func TestGlobalQueueThroughBuild(t *testing.T) {
	cfg := baseConfig()
	cfg.UseGlobalQueue = true
	cfg.Arrivals = workload.Poisson{Rate: 4000} // oversubscribe 16 slots
	cfg.Factory = workload.SingleTask{Service: workload.WebSearchService()}
	cfg.MaxJobs = 2000
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mid-run, the global queue must hold work while servers stay
	// local-queue-free.
	dc.Gen.Start()
	dc.Eng.RunUntil(100 * simtime.Millisecond)
	anyLocal := 0
	for _, srv := range dc.Servers {
		anyLocal += srv.QueueLen()
	}
	if anyLocal != 0 {
		t.Errorf("local queues hold %d tasks in global-queue mode", anyLocal)
	}
	dc.Eng.Run()
	res := dc.Collect()
	if res.JobsCompleted != 2000 {
		t.Errorf("jobs = %d", res.JobsCompleted)
	}
}

func TestMultiSocketFarmThroughBuild(t *testing.T) {
	cfg := baseConfig()
	cfg.ServerConfig = server.DefaultConfig(power.DualSocketXeon())
	cfg.Arrivals = workload.Poisson{Rate: 100}
	cfg.MaxJobs = 500
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dc.Servers[0].Cores() != 20 {
		t.Fatalf("cores = %d", dc.Servers[0].Cores())
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != 500 {
		t.Errorf("jobs = %d", res.JobsCompleted)
	}
	// At this trickle the second socket of each server should have
	// parked for most of the run: per-server CPU energy must be well
	// under the both-sockets-idle bound.
	prof := power.DualSocketXeon()
	bothIdle := (float64(prof.Cores)*prof.CoreIdle + 2*prof.PkgPC0 + prof.DRAMIdle + prof.PlatformS0) * res.End.Seconds()
	if e := res.PerServer[0]; e.CPU+e.DRAM+e.Platform >= bothIdle {
		t.Errorf("per-server energy %v >= Active-Idle bound %v (no socket parking?)",
			e.CPU+e.DRAM+e.Platform, bothIdle)
	}
}

// A placer that implements sched.Binder reads the live network, so
// without a topology there is nothing to bind it to.
func TestBinderPlacerRequiresTopology(t *testing.T) {
	cfg := baseConfig()
	cfg.Placer = &sched.NetworkAware{}
	if _, err := Build(cfg); err == nil || !strings.Contains(err.Error(), "requires a topology") {
		t.Errorf("Build with a network-bound placer and no topology: err = %v", err)
	}
}

func TestOnDispatchThroughBuild(t *testing.T) {
	count := 0
	cfg := baseConfig()
	cfg.MaxJobs = 50
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc.Sched.OnDispatch(func(srv *server.Server, tk *job.Task) {
		if srv == nil || tk == nil {
			t.Error("nil dispatch arguments")
		}
		count++
	})
	if _, err := dc.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Errorf("dispatch hook fired %d times, want 50", count)
	}
}

func TestStarTopologyPacketEnergy(t *testing.T) {
	cfg := baseConfig()
	cfg.Servers = 8
	cfg.Topology = topology.Star{Hosts: 8, RateBps: 1e9}
	cfg.NetworkConfig = network.DefaultConfig(power.Cisco2960_24())
	cfg.CommMode = CommPacket
	cfg.Factory = workload.TwoTier{
		AppService: workload.WebSearchService(),
		DBService:  workload.WebSearchService(),
		Bytes:      6000,
	}
	cfg.MaxJobs = 300
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Network energy must sit inside the switch's physical power band:
	// above the all-LPI floor, below the all-active ceiling.
	lo := (14.7 + 8*0.03) * res.End.Seconds()
	hi := (14.7 + 8*0.23) * res.End.Seconds() * 1.01
	if res.NetworkEnergyJ < lo || res.NetworkEnergyJ > hi {
		t.Errorf("network energy %v outside [%v, %v]", res.NetworkEnergyJ, lo, hi)
	}
	if math.IsNaN(res.NetworkEnergyJ) {
		t.Error("NaN network energy")
	}
}
