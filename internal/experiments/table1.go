package experiments

import (
	"fmt"

	"holdcsim/internal/core"
	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/workload"
)

// TableI reproduces the paper's capability comparison (Table I). The
// qualitative rows are the implemented feature matrix; the scalability
// row ("more than 20K servers") is verified empirically by building and
// running a >20K-server farm once, at the base seed. How fast it runs is
// bench/'s to measure (its farm-rr workload is this shape).
type TableIParams struct {
	Common
	// ScaleServers is the farm size for the scalability check.
	ScaleServers int
	// ScaleJobs bounds the scalability run.
	ScaleJobs int64
}

// DefaultTableI checks the paper's ">20K servers" claim directly.
func DefaultTableI() TableIParams {
	return TableIParams{Common: Common{Seed: 37}, ScaleServers: 20480, ScaleJobs: 100000}
}

// QuickTableI shrinks the scalability run for tests and benches.
func QuickTableI() TableIParams {
	return TableIParams{Common: Common{Seed: 37}, ScaleServers: 2048, ScaleJobs: 10000}
}

// TableIResult carries the feature matrix plus the scalability run's
// figures, every one of them deterministic.
type TableIResult struct {
	Features *Table
	// The scalability run.
	Servers       int
	JobsCompleted int64
	SimSeconds    float64
	Events        uint64          // events dispatched
	Engine        engine.Counters // how they travelled through the queue
}

// TableI renders the capability matrix and runs the scalability check.
func TableI(p TableIParams) (*TableIResult, error) {
	features := &Table{
		Title:  "Table I: HolDCSim capability matrix (this implementation)",
		Header: []string{"category", "capability"},
	}
	for _, row := range [][2]string{
		{"Server", "multi-core, multi-socket processors; heterogeneous core speeds; per-core or unified local queues"},
		{"Network", "switch model with chassis, line cards and ports; packet buffers"},
		{"Topology", "switch-only (fat tree, flattened butterfly); server-only (CamCube); hybrid (BCube); star"},
		{"Communication", "packet-level (store-and-forward) and flow-based (max-min fair)"},
		{"Job/Task", "multi-task jobs with task-dependency DAGs and per-edge transfer sizes"},
		{"Power", "DVFS (P-states) with ondemand governor; core and per-socket package C-states; ACPI S-states; switch LPI, line-card sleep"},
		{"Scheduling", "global round-robin / least-loaded / pack-first / network-aware; optional global task queue; provisioning, dual-timer and adaptive-pool controllers"},
		{"Workloads", "Poisson, 2-state MMPP, trace replay (Wikipedia-like, NLANR-like synthetic)"},
		{"Scalability", fmt.Sprintf("verified at %d servers below", p.ScaleServers)},
	} {
		features.Add(row[0], row[1])
	}

	// Scalability: a >20K-server farm under light Poisson load.
	prof := power.FourCoreServer()
	cfg := core.Config{
		Servers:      p.ScaleServers,
		ServerConfig: server.DefaultConfig(prof),
		Placer:       sched.RoundRobin{},
		Arrivals: workload.Poisson{
			Rate: workload.UtilizationRate(0.2, p.ScaleServers, prof.Cores, 0.005)},
		Factory: workload.SingleTask{Service: workload.WebSearchService()},
		MaxJobs: p.ScaleJobs,
	}
	dc, err := p.build(p.Seed, cfg)
	if err != nil {
		return nil, err
	}
	res, err := dc.Run()
	if err != nil {
		return nil, err
	}
	return &TableIResult{
		Features:      features,
		Servers:       p.ScaleServers,
		JobsCompleted: res.JobsCompleted,
		SimSeconds:    res.End.Seconds(),
		Events:        dc.Eng.Dispatched,
		Engine:        dc.Eng.Count,
	}, nil
}

// Summary renders the scalability verdict and, on a second line, the
// engine's tier counters (DESIGN.md Sec. 2): heap pops and the mean heap
// length at a pop, pushes below lim, rungs, splits, runs, re-buckets,
// lane pushes and lane claims.
func (r *TableIResult) Summary() string {
	c := r.Engine
	meanLen := 0.0
	if c.BottomPops > 0 {
		meanLen = float64(c.BottomLen) / float64(c.BottomPops)
	}
	return fmt.Sprintf("scalability: %d servers, %d jobs, %d events for %.2fs simulated\n"+
		"engine: %d bottom pops (mean heap %.1f), %d direct pushes, %d rungs, %d splits, %d runs, %d re-buckets, %d lane pushes, %d lane claims",
		r.Servers, r.JobsCompleted, r.Events, r.SimSeconds,
		c.BottomPops, meanLen, c.DirectPushes, c.Rungs, c.Splits, c.Runs, c.Rebuckets,
		c.LanePushes, c.LaneClaims)
}

// report pins the scalability row's jobs and virtual end time; the
// event count and the engine counters are only shown, so a change to
// how the engine queues events moves no golden.
func (r *TableIResult) report() *Report {
	features := Part{Name: "table1", Table: r.Features}
	return &Report{
		Pinned: []Part{features,
			linef("jobs_completed\t%d", r.JobsCompleted), linef("sim_seconds\t%.6g", r.SimSeconds)},
		Shown: []Part{features, {Line: r.Summary()}},
	}
}
