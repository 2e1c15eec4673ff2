//go:build !race

package sched_test

import (
	"fmt"
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
	"holdcsim/internal/workload"
)

// dialRate is a Poisson arrival process whose rate the test turns
// mid-run, so an overload grows every queue, pool and ring to its
// high-water mark before the measured load runs against warm storage.
type dialRate struct{ rate *float64 }

func (d dialRate) Next(r *rng.Source) float64 { return r.Exp(1 / *d.rate) }
func (d dialRate) String() string             { return fmt.Sprintf("dial(λ=%g/s)", *d.rate) }

// TestScatterGatherSteadyStateZeroAlloc is the gate for the DAG job
// path the dag-packet and dag-fluid workloads run, in both network
// models: arrival → root → scatter of 64 KiB edges across a K=4
// fat-tree → workers → gather → completion. Once warm, whole job cycles
// allocate nothing: jobs and their edge objects are recycled, each edge
// binds its delivery callback once, and transfers, packets and flows
// come from the network's pools.
func TestScatterGatherSteadyStateZeroAlloc(t *testing.T) {
	for _, model := range []network.NetModel{network.ModelPacket, network.ModelFluid} {
		const servers = 16
		prof := power.FourCoreServer()
		svc := workload.WebSearchService()
		rate := 0.0
		ncfg := network.DefaultConfig(power.DataCenter10G(4))
		ncfg.Model = model
		dc, err := core.Build(core.Config{
			Seed:          1,
			Servers:       servers,
			ServerConfig:  server.DefaultConfig(prof),
			Topology:      topology.FatTree{K: 4},
			NetworkConfig: ncfg,
			CommMode:      core.CommPacket,
			Placer:        sched.LeastLoaded{},
			Arrivals:      dialRate{&rate},
			Factory:       workload.ScatterGather{Width: 4, RootSize: svc, WorkerSize: svc, AggSize: svc, Bytes: 64 << 10},
			MaxJobs:       1 << 20, // never reached; sizes the latency tally
		})
		if err != nil {
			t.Fatal(err)
		}
		// A job is six tasks; the overload fills every core.
		rate = workload.UtilizationRate(1.2, servers, prof.Cores, 6*0.005)
		dc.Gen.Start()
		dc.Eng.RunUntil(1000 * simtime.Millisecond)
		rate = workload.UtilizationRate(0.5, servers, prof.Cores, 6*0.005)
		dc.Eng.RunUntil(1500 * simtime.Millisecond)

		done := dc.Sched.JobsCompleted()
		allocs := testing.AllocsPerRun(10, func() {
			dc.Eng.RunUntil(dc.Eng.Now() + 50*simtime.Millisecond)
		})
		if jobs := dc.Sched.JobsCompleted() - done; jobs < 300 {
			t.Fatalf("%v: measured window completed only %d jobs", model, jobs)
		}
		if st := dc.Net.Stats(); st.PacketsDelivered == 0 {
			t.Fatalf("%v: no edge crossed the network: %+v", model, st)
		}
		if allocs != 0 {
			t.Fatalf("%v: steady-state scatter-gather run allocates %v per 50 ms window (~50 jobs), want 0", model, allocs)
		}
	}
}
