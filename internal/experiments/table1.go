package experiments

import (
	"fmt"

	"holdcsim/internal/core"
	"holdcsim/internal/power"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/workload"
)

// TableI reproduces the paper's capability comparison (Table I). The
// qualitative rows are the implemented feature matrix; the scalability
// row ("more than 20K servers") is verified empirically by building and
// running a >20K-server farm and reporting throughput.
type TableIParams struct {
	// Common's Exec.Workers is forced to 1: the run measures
	// wall-clock, and concurrent replications would contend for cores
	// and deflate the reported events/s.
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

// TableIResult carries the feature matrix plus the measured scalability
// figures.
type TableIResult struct {
	Features *Table
	// Scalability measurements.
	Servers       int
	JobsCompleted int64
	EventsPerSec  float64
	WallSeconds   float64
	SimSeconds    float64
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

	// Scalability: a >20K-server farm under light Poisson load, run
	// through the campaign runner; replications mean the throughput
	// figures over seed variants.
	exec := p.Exec
	exec.Workers = 1 // timing runs must not contend with each other
	rep, err := runner.One(exec, p.Seed, "table1/scale", func(seed uint64) (*TableIResult, error) {
		return tableIScale(p, seed)
	})
	if err != nil {
		return nil, err
	}
	out := rep[0]
	out.Features = features
	if p.Exec.RepCount() > 1 {
		out.EventsPerSec = runner.MeanBy(rep, func(r *TableIResult) float64 { return r.EventsPerSec })
		out.WallSeconds = runner.MeanBy(rep, func(r *TableIResult) float64 { return r.WallSeconds })
	}
	return out, nil
}

func tableIScale(p TableIParams, seed uint64) (*TableIResult, error) {
	prof := power.FourCoreServer()
	sc := server.DefaultConfig(prof)
	cfg := core.Config{
		Servers:      p.ScaleServers,
		ServerConfig: sc,
		Placer:       sched.RoundRobin{},
		Arrivals: workload.Poisson{
			Rate: workload.UtilizationRate(0.2, p.ScaleServers, prof.Cores, 0.005)},
		Factory: workload.SingleTask{Service: workload.WebSearchService()},
		MaxJobs: p.ScaleJobs,
	}
	sw := runner.StartStopwatch()
	dc, err := p.build(seed, cfg)
	if err != nil {
		return nil, err
	}
	res, err := dc.Run()
	if err != nil {
		return nil, err
	}
	wall := sw.Elapsed().Seconds()
	out := &TableIResult{
		Servers:       p.ScaleServers,
		JobsCompleted: res.JobsCompleted,
		WallSeconds:   wall,
		SimSeconds:    res.End.Seconds(),
	}
	if wall > 0 {
		out.EventsPerSec = float64(dc.Eng.Dispatched) / wall
	}
	return out, nil
}

// Summary renders the scalability verdict.
func (r *TableIResult) Summary() string {
	return fmt.Sprintf("scalability: %d servers, %d jobs, %.0f events/s, %.2fs wall for %.2fs simulated",
		r.Servers, r.JobsCompleted, r.EventsPerSec, r.WallSeconds, r.SimSeconds)
}

// report pins the deterministic half of the scalability row (jobs and
// virtual end time); wall-clock and events/s are machine-dependent and
// only shown.
func (r *TableIResult) report() *Report {
	features := Part{Name: "table1", Table: r.Features}
	return &Report{
		Pinned: []Part{features,
			linef("jobs_completed\t%d", r.JobsCompleted), linef("sim_seconds\t%.6g", r.SimSeconds)},
		Shown: []Part{features, {Line: r.Summary()}},
	}
}
