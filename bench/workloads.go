package main

import (
	"fmt"
	"os"
	"path/filepath"

	"holdcsim/internal/core"
	"holdcsim/internal/fault"
	"holdcsim/internal/network"
	"holdcsim/internal/scenario"
)

// benchWorkload is one named benchmark input: a scenario (or matrix) file
// generated from the seed, and the fixed job count that makes
// "jobs per second" a statement about host time alone.
type benchWorkload struct {
	name string
	why  string
	// jobs and quickJobs are the per-run (per-point, for campaign)
	// MaxJobs at full and -quick size.
	jobs, quickJobs int64
	// sharded swaps in the sharded placer and rack shards after decoding
	// (the scenario registry has neither); matrix marks a campaign file,
	// run point by point over the worker pool.
	sharded, matrix bool
	// generate writes the input file for the seed and size.
	generate func(w *benchWorkload, seed uint64, quick bool) ([]byte, error)
}

// Sizes are chosen so one measured run (set-up + run, a fresh process)
// takes 1.5–3 s on the 2-vCPU reference box: short enough that a
// benchmark invocation holds at least five of them, long enough that
// process start-up and the first GC cycles are a small share.
var workloads = []*benchWorkload{
	{
		name: "farm-rr",
		why: "Table I shape at paper scale (20,480 four-core servers, round-robin, single-task jobs): " +
			"engine, server state machine, stats and job allocation do the work; network and placement do none",
		jobs: 300_000, quickJobs: 3_000,
		generate: func(w *benchWorkload, seed uint64, quick bool) ([]byte, error) {
			s := serverOnly(seed, 20480, quick)
			s.Placer = scenario.PlacerSpec{Kind: scenario.PlRoundRobin}
			s.DelayTimerSec = -1
			s.MaxJobs = w.size(quick)
			return scenario.Encode(s)
		},
	},
	{
		name: "sleep-farm",
		why: "128,000 servers in 3,200 rack shards, sharded placer, 1 ms delay timer, compact stats: " +
			"the sleep planner, sharded placement and a large server array; set-up time and memory are first-class",
		jobs: 150_000, quickJobs: 2_000, sharded: true,
		generate: func(w *benchWorkload, seed uint64, quick bool) ([]byte, error) {
			s := serverOnly(seed, fatTreeHosts(sleepFarmK(quick)), false)
			s.Placer = scenario.PlacerSpec{Kind: scenario.PlLeastLoaded}
			s.DelayTimerSec = 0.001
			s.MaxJobs = w.size(quick)
			return scenario.Encode(s)
		},
	},
	{
		name: "dag-packet",
		why: "fat-tree K=8, scatter-gather jobs with 64 KiB edges over the per-packet network model: " +
			"thousands of packet events per job, so the packet fast path and the engine queue are the run",
		jobs: 4_000, quickJobs: 60,
		generate: func(w *benchWorkload, seed uint64, quick bool) ([]byte, error) {
			return scenario.Encode(dagScenario(seed, network.ModelPacket, w.size(quick)))
		},
	},
	{
		name: "dag-fluid",
		why: "the dag-packet file with netModel fluid: few events per job but allocation- and GC-heavy rate sharing, " +
			"so a packet-path win that costs the fluid path (or the reverse) shows",
		jobs: 8_000, quickJobs: 60,
		generate: func(w *benchWorkload, seed uint64, quick bool) ([]byte, error) {
			return scenario.Encode(dagScenario(seed, network.ModelFluid, w.size(quick)))
		},
	},
	{
		name: "campaign",
		why: "240 small invariant-checked runs (4 seeds x 5 pool policies x 2 loads x 3 delay timers x 2 arrival processes) " +
			"through runner.Map: many builds, pool controllers, the checker and fan-out",
		jobs: 8_000, quickJobs: 50, matrix: true,
		generate: func(w *benchWorkload, seed uint64, quick bool) ([]byte, error) {
			base := serverOnly(seed, 50, false)
			base.MaxJobs = w.size(quick)
			var arrivals []scenario.ArrivalSpec
			for _, rho := range []float64{0.3, 0.6} {
				arrivals = append(arrivals,
					scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: rho},
					scenario.ArrivalSpec{Kind: scenario.ArrMMPP, Rho: rho, BurstRatio: 4})
			}
			return scenario.EncodeMatrix(scenario.Matrix{Base: base, Axes: scenario.Axes{
				Seeds: []uint64{seed, seed + 1<<20, seed + 2<<20, seed + 3<<20},
				Placers: []scenario.PlacerSpec{
					{Kind: scenario.PlPackFirst}, {Kind: scenario.PlLeastLoaded},
					{Kind: scenario.PlAdaptivePool, TauSec: 0.1}, {Kind: scenario.PlDualTimer, TauSec: 0.1},
					{Kind: scenario.PlProvisioner},
				},
				Arrivals:  arrivals,
				DelayTaus: []float64{0.01, 0.1, 1},
			}})
		},
	},
}

func (w *benchWorkload) size(quick bool) int64 {
	if quick {
		return w.quickJobs
	}
	return w.jobs
}

func workloadByName(name string) *benchWorkload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// serverOnly is the common base: a four-core farm with no network under
// Poisson web-search load at rho 0.2. Quick shrinks the farm 10x.
func serverOnly(seed uint64, servers int, quick bool) scenario.Scenario {
	if quick {
		servers /= 10
	}
	return scenario.Scenario{
		Seed:           seed,
		Servers:        servers,
		Profile:        scenario.ProfFourCore,
		Arrival:        scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.2},
		Factory:        scenario.FactorySpec{Kind: scenario.FacSingle, Service: scenario.SvcWebSearch},
		SwitchSleepSec: -1,
		Faults:         fault.Spec{},
	}
}

func dagScenario(seed uint64, model network.NetModel, jobs int64) scenario.Scenario {
	return scenario.Scenario{
		Seed:           seed,
		Topology:       scenario.TopologySpec{Kind: scenario.TopoFatTree, A: 8},
		Comm:           core.CommPacket,
		NetModel:       model,
		Servers:        fatTreeHosts(8),
		Profile:        scenario.ProfFourCore,
		DelayTimerSec:  -1,
		Placer:         scenario.PlacerSpec{Kind: scenario.PlLeastLoaded},
		Arrival:        scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.3},
		Factory:        scenario.FactorySpec{Kind: scenario.FacScatterGather, Service: scenario.SvcWebSearch, Width: 4, EdgeBytes: 64 << 10},
		MaxJobs:        jobs,
		SwitchSleepSec: -1,
	}
}

// sleepFarmK is the fat-tree arity whose host count is the sleep-farm
// size and whose edge switches are its rack shards.
func sleepFarmK(quick bool) int {
	if quick {
		return 16
	}
	return 80
}

func fatTreeHosts(k int) int { return k * k * k / 4 }

// writeInputs generates every selected workload's input file for the
// seed into dir and returns the path per workload name. The program
// under measurement sees only these files.
func writeInputs(dir string, ws []*benchWorkload, seed uint64, quick bool) (map[string]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make(map[string]string, len(ws))
	for _, w := range ws {
		data, err := w.generate(w, seed, quick)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", w.name, err)
		}
		p := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			return nil, err
		}
		paths[w.name] = p
	}
	return paths, nil
}
