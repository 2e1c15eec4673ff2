package core

import (
	"fmt"
	"hash/fnv"
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

// recycleConfigs are the two shapes the pins below cover, on Table I's
// golden seed: Table I's own (round-robin, single-task jobs, delay timer
// on so servers also sleep and wake) and a DAG workload over a network.
func recycleConfigs() map[string]Config {
	prof := power.FourCoreServer()
	farm := Config{
		Seed:         37,
		Servers:      24,
		ServerConfig: server.DefaultConfig(prof),
		Placer:       sched.RoundRobin{},
		Arrivals:     workload.Poisson{Rate: workload.UtilizationRate(0.4, 24, prof.Cores, 0.005)},
		Factory:      workload.SingleTask{Service: workload.WebSearchService()},
		MaxJobs:      4000,
	}
	farm.ServerConfig.DelayTimerEnabled = true
	farm.ServerConfig.DelayTimer = 20 * simtime.Millisecond
	dag := Config{
		Seed:          37,
		Servers:       16,
		ServerConfig:  server.DefaultConfig(prof),
		Topology:      topology.FatTree{K: 4},
		NetworkConfig: network.DefaultConfig(power.DataCenter10G(4)),
		CommMode:      CommFlow,
		Placer:        sched.LeastLoaded{},
		Arrivals:      workload.Poisson{Rate: 600},
		Factory: workload.ScatterGather{Width: 3, RootSize: workload.WebSearchService(),
			WorkerSize: workload.WebSearchService(), AggSize: workload.WebSearchService(), Bytes: 32 << 10},
		MaxJobs: 1500,
	}
	return map[string]Config{"farm": farm, "dag": dag}
}

// doneSequence runs cfg and hashes what an OnJobDone subscriber sees, in
// order: each finished job's ID and sojourn, copied out during the
// callback as the lifetime rule requires.
func doneSequence(t *testing.T, cfg Config) (digest string, results string) {
	t.Helper()
	cfg.Check = true
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	dc.Sched.OnJobDone(func(j *job.Job) {
		fmt.Fprintf(h, "%d:%d;", j.ID, j.Sojourn())
	})
	r, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	lat := r.Latency
	r.Latency = nil // a pointer: compare what it holds
	return fmt.Sprintf("%016x", h.Sum64()),
		fmt.Sprintf("%v latency=%v/%v/%v", *r, lat.Count(), lat.Mean(), lat.CDF(64))
}

// TestJobDoneSequencePinned pins the (ID, sojourn) sequence to the
// digests the same runs produced before jobs were recycled: reusing a
// job's storage must not move one completion.
func TestJobDoneSequencePinned(t *testing.T) {
	pins := map[string]string{
		"farm": "7cb4269a5755a5cf",
		"dag":  "b044440f087ed549",
	}
	for name, cfg := range recycleConfigs() {
		if got, _ := doneSequence(t, cfg); got != pins[name] {
			t.Errorf("%s: OnJobDone sequence digest %s, pinned %s", name, got, pins[name])
		}
	}
}

// TestRecyclingIsInvisible is the same law for the results: the run
// with the free list on reports, digest for digest, the results the
// same run gave when it allocated every job — a run no factory can ask
// for any longer, every factory drawing on the generator's free list.
func TestRecyclingIsInvisible(t *testing.T) {
	pins := map[string]string{
		"farm": "23e7d9096257ee08",
		"dag":  "b2e2b6a0a41baade",
	}
	for name, cfg := range recycleConfigs() {
		_, res := doneSequence(t, cfg)
		h := fnv.New64a()
		h.Write([]byte(res))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != pins[name] {
			t.Errorf("%s: results digest %s, the allocating run's %s\n%s", name, got, pins[name], res)
		}
	}
}
