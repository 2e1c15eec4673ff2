package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"holdcsim/internal/core"
	"holdcsim/internal/power"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
	"holdcsim/internal/workload"
)

// Hyperscale pushes the scalability claim past the paper's 20K-server
// Table I row: a fat-tree-organized farm of ~1M servers where every
// idle server costs O(1) — no queued engine event, no per-dispatch
// walk. The fat-tree graph is built only to derive rack shards for the
// sharded placer (topology.ScopeMap), then dropped: the run itself is
// server-only (CommNone), since a million-host packet network is a
// different experiment.
type HyperscaleParams struct {
	Seed uint64
	// K is the fat-tree arity; the farm size is its host count K³/4
	// and the shard count its rack (edge-switch) count K²/2.
	K int
	// Jobs bounds the run.
	Jobs int64
	// Util is the target farm utilization for the Poisson arrivals.
	Util float64
	// DelayTimer is the per-server sleep delay timer, exercising the
	// farm's shared sleep planner at full scale.
	DelayTimer simtime.Time
	// Check attaches the invariant checker (bounded deep scans and
	// farm-aggregate finalize keep it affordable at this size).
	Check bool
}

// DefaultHyperscale is the 1,024,000-server configuration
// (fat-tree K=160: 12,800 racks of 80 hosts).
func DefaultHyperscale() HyperscaleParams {
	return HyperscaleParams{Seed: 41, K: 160, Jobs: 200000, Util: 0.2,
		DelayTimer: simtime.Millisecond}
}

// QuickHyperscale shrinks the farm for tests and smoke runs
// (fat-tree K=16: 1,024 servers in 128 racks).
func QuickHyperscale() HyperscaleParams {
	return HyperscaleParams{Seed: 41, K: 16, Jobs: 5000, Util: 0.2,
		DelayTimer: simtime.Millisecond}
}

// HyperscaleResult carries the scale figures: throughput over the run
// phase, build cost, and the process's peak resident set.
type HyperscaleResult struct {
	Servers       int
	Racks         int
	JobsCompleted int64
	EventsPerSec  float64
	BuildSeconds  float64
	RunSeconds    float64
	PeakRSSBytes  int64
}

// Hyperscale builds and runs the million-server farm.
func Hyperscale(p HyperscaleParams) (*HyperscaleResult, error) {
	if p.K < 2 || p.K%2 != 0 {
		return nil, fmt.Errorf("experiments: fat-tree arity %d must be even and >= 2", p.K)
	}
	sw := runner.StartStopwatch()

	nServers := topology.FatTree{K: p.K}.NumHosts()
	shardOf, nRacks, err := rackShards(p.K)
	if err != nil {
		return nil, err
	}

	prof := power.FourCoreServer()
	sc := server.DefaultConfig(prof)
	sc.DelayTimerEnabled = true
	sc.DelayTimer = p.DelayTimer
	cfg := core.Config{
		Seed:         p.Seed,
		Check:        p.Check,
		Servers:      nServers,
		ServerConfig: sc,
		Placer:       sched.ShardedLeastLoaded{},
		Arrivals: workload.Poisson{
			Rate: workload.UtilizationRate(p.Util, nServers, prof.Cores, 0.005)},
		Factory: workload.SingleTask{Service: workload.WebSearchService()},
		MaxJobs: p.Jobs,
	}
	dc, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	if err := dc.Sched.SetShards(shardOf, nRacks); err != nil {
		return nil, err
	}
	buildSecs := sw.Elapsed().Seconds()

	sw = runner.StartStopwatch()
	res, err := dc.Run()
	if err != nil {
		return nil, err
	}
	runSecs := sw.Elapsed().Seconds()

	out := &HyperscaleResult{
		Servers:       nServers,
		Racks:         nRacks,
		JobsCompleted: res.JobsCompleted,
		BuildSeconds:  buildSecs,
		RunSeconds:    runSecs,
		PeakRSSBytes:  peakRSSBytes(),
	}
	if runSecs > 0 {
		out.EventsPerSec = float64(dc.Eng.Dispatched) / runSecs
	}
	return out, nil
}

// Summary renders the scale verdict.
func (r *HyperscaleResult) Summary() string {
	return fmt.Sprintf("hyperscale: %d servers in %d racks, %d jobs, %.0f events/s over %.2fs run (%.2fs build), peak RSS %.1f GiB",
		r.Servers, r.Racks, r.JobsCompleted, r.EventsPerSec, r.RunSeconds,
		r.BuildSeconds, float64(r.PeakRSSBytes)/(1<<30))
}

// rackShards derives the rack shard map from a transient fat-tree
// graph: only the host→rack table survives; the graph itself
// (switches, links, host bindings) becomes garbage on return, so the
// run pays no memory for a topology it never routes over.
func rackShards(k int) ([]int32, int, error) {
	g, err := topology.FatTree{K: k}.Build()
	if err != nil {
		return nil, 0, err
	}
	sm := topology.NewScopeMap(g)
	shardOf := make([]int32, len(sm.RackOf))
	for i, r := range sm.RackOf {
		shardOf[i] = int32(r)
	}
	return shardOf, sm.NumRacks(), nil
}

// peakRSSBytes reports the process's high-water resident set from
// /proc/self/status (VmHWM), falling back to the Go runtime's Sys
// figure on platforms without procfs.
func peakRSSBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 2 {
				if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
