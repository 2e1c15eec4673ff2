package experiments

import (
	"fmt"
	"sort"

	"holdcsim/internal/core"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
	"holdcsim/internal/topology"
	"holdcsim/internal/workload"
)

// Fig11Params parameterizes the Sec. IV-D joint server-network study:
// a k=4 fat-tree (Fig. 10) carrying DAG jobs whose inter-task edges are
// 100 MB flows, comparing the Server-Balanced baseline against the
// Server-Network-Aware policy at 30% and 60% utilization. The paper
// reports ~20% server and ~18% network power savings with a negligible
// latency CDF shift (Fig. 11b).
type Fig11Params struct {
	Common
	FatTreeK     int
	Utilizations []float64
	Jobs         int64
	FlowBytes    int64
	// DAG shape: layered random graphs (Sec. III-C).
	Layers, MaxWidth, MaxDeps int
	MinTask, MaxTask          simtime.Time
	// TauSec is the server delay timer; SwitchSleepIdleSec the line-card
	// sleep threshold.
	TauSec             float64
	SwitchSleepIdleSec float64
	CDFPoints          int
}

// DefaultFig11 mirrors the paper: fat-tree k=4 (16 hosts), 2000 jobs,
// 100 MB flows. Task sizes are chosen so the CPU demand and the network
// demand reach the target utilization together (mean task 320 ms against
// an 80 ms flow serialization), keeping job latencies in the sub-second
// regime of Fig. 11b for both policies.
func DefaultFig11() Fig11Params {
	return Fig11Params{
		Common:             Common{Seed: 23},
		FatTreeK:           4,
		Utilizations:       []float64{0.3, 0.6},
		Jobs:               2000,
		FlowBytes:          100e6,
		Layers:             3,
		MaxWidth:           3,
		MaxDeps:            1, // tree DAGs: one 100 MB input per task
		MinTask:            100 * simtime.Millisecond,
		MaxTask:            330 * simtime.Millisecond,
		TauSec:             1.0,
		SwitchSleepIdleSec: 0.5,
		CDFPoints:          60,
	}
}

// QuickFig11 shrinks the run for tests and benches. The job count still
// spans enough virtual time for suspend/sleep cycles to complete and
// differentiate the policies.
func QuickFig11() Fig11Params {
	p := DefaultFig11()
	p.Jobs = 500
	p.FlowBytes = 50e6
	// Halved flows need halved tasks to keep CPU and network demand
	// balanced at the same rho.
	p.MinTask = 50 * simtime.Millisecond
	p.MaxTask = 160 * simtime.Millisecond
	p.CDFPoints = 20
	return p
}

// Fig11Point is one (policy, utilization) cell of Fig. 11a.
type Fig11Point struct {
	Policy       string
	Rho          float64
	ServerPowerW float64
	SwitchPowerW float64
	MeanLatS     float64
	P95LatS      float64
	SwitchWakes  int64
	ServerWakes  int64
}

// Fig11Result carries the power comparison (11a) and latency CDFs (11b).
type Fig11Result struct {
	Points []Fig11Point
	Series *Table
	// CDFs maps "policy/rho" to the latency CDF.
	CDFs map[string][]stats.CDFPoint
	// Savings at each rho: positive means network-aware wins.
	ServerSavingPct  map[float64]float64
	NetworkSavingPct map[float64]float64
}

// fig11Sample is one (rho, policy) cell's outcome.
type fig11Sample struct {
	Point Fig11Point
	CDF   []stats.CDFPoint
}

// Fig11 runs the joint optimization comparison. Each (rho, policy) cell
// is an independent runner.Run. With Exec.Reps > 1 power and latency
// figures become across-replication means (wake counts and the latency
// CDF keep the base-seed replication) and the series gains server-power
// stddev/CI95 and replication-count columns.
func Fig11(p Fig11Params) (*Fig11Result, error) {
	header := []string{"policy", "rho", "server_W", "network_W",
		"mean_lat_s", "p95_lat_s", "switch_wakes", "server_wakes"}
	nrep := p.Exec.RepCount()
	if nrep > 1 {
		header = append(header, "server_std_W", "server_ci95_W", "reps")
	}
	out := &Fig11Result{
		Series: &Table{
			Title:  "Fig. 11a: server and network power, Server-Balanced vs Server-Network-Aware",
			Header: header,
		},
		CDFs:             make(map[string][]stats.CDFPoint),
		ServerSavingPct:  make(map[float64]float64),
		NetworkSavingPct: make(map[float64]float64),
	}

	var runs []runner.Run[fig11Sample]
	for _, rho := range p.Utilizations {
		for _, networkAware := range []bool{false, true} {
			rho, networkAware := rho, networkAware
			// The Key excludes the policy so replication i of both
			// policies sees the same job sequence (common random
			// numbers): the saving percentages compare paired runs.
			runs = append(runs, runner.Run[fig11Sample]{
				Key: fmt.Sprintf("fig11/%g", rho),
				Do: func(seed uint64) (fig11Sample, error) {
					pt, cdf, err := fig11Run(p, rho, networkAware, seed)
					return fig11Sample{Point: pt, CDF: cdf}, err
				},
			})
		}
	}
	reps, err := runner.MapReps(p.Exec, p.Seed, runs)
	if err != nil {
		return nil, err
	}

	idx := 0
	for _, rho := range p.Utilizations {
		var balanced, aware Fig11Point
		for _, networkAware := range []bool{false, true} {
			rep := reps[idx]
			idx++
			pt := rep[0].Point
			srvPow := runner.SummarizeBy(rep, func(s fig11Sample) float64 { return s.Point.ServerPowerW })
			if nrep > 1 {
				pt.ServerPowerW = srvPow.Mean
				pt.SwitchPowerW = runner.MeanBy(rep, func(s fig11Sample) float64 { return s.Point.SwitchPowerW })
				pt.MeanLatS = runner.MeanBy(rep, func(s fig11Sample) float64 { return s.Point.MeanLatS })
				pt.P95LatS = runner.MeanBy(rep, func(s fig11Sample) float64 { return s.Point.P95LatS })
			}
			out.Points = append(out.Points, pt)
			row := []any{pt.Policy, rho, pt.ServerPowerW, pt.SwitchPowerW,
				pt.MeanLatS, pt.P95LatS, pt.SwitchWakes, pt.ServerWakes}
			if nrep > 1 {
				row = append(row, srvPow.Std, srvPow.CI95, nrep)
			}
			out.Series.Addf(row...)
			out.CDFs[pt.Policy+"/"+formatRho(rho)] = rep[0].CDF
			if networkAware {
				aware = pt
			} else {
				balanced = pt
			}
		}
		out.ServerSavingPct[rho] = 100 * (balanced.ServerPowerW - aware.ServerPowerW) / balanced.ServerPowerW
		out.NetworkSavingPct[rho] = 100 * (balanced.SwitchPowerW - aware.SwitchPowerW) / balanced.SwitchPowerW
	}
	return out, nil
}

// CDFTable renders the Fig. 11b latency CDFs as one table, keyed by
// policy/rho in sorted order.
func (r *Fig11Result) CDFTable() *Table {
	cdf := &Table{
		Title:  "Fig. 11b: job response time CDF",
		Header: []string{"policy_rho", "latency_s", "F"},
	}
	keys := make([]string, 0, len(r.CDFs))
	for k := range r.CDFs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, pt := range r.CDFs[k] {
			cdf.Addf(k, pt.X, pt.F)
		}
	}
	return cdf
}

// formatRho renders a utilization as its percentage at the precision
// the series tables print rho, so distinct sweep points get distinct
// CDF keys.
func formatRho(rho float64) string { return fmt.Sprintf("%.6g%%", rho*100) }

func fig11Run(p Fig11Params, rho float64, networkAware bool, seed uint64) (Fig11Point, []stats.CDFPoint, error) {
	topo := topology.FatTree{K: p.FatTreeK, RateBps: 10e9}
	nHosts := topo.NumHosts()

	prof := power.FourCoreServer()
	sc := server.DefaultConfig(prof)
	sc.DelayTimerEnabled = true
	sc.DelayTimer = simtime.FromSeconds(p.TauSec)

	// Both resources are sized against rho: the arrival rate is derived
	// from the aggregate host bandwidth (the 100 MB flows make the
	// network the scarce resource), and the default task sizes are
	// chosen so CPU demand reaches the same rho at that rate. With
	// MaxDeps=1 the DAG is a tree: edges = tasks - first-layer roots.
	meanTasks := float64(p.Layers) * (1 + float64(p.MaxWidth)) / 2
	meanEdges := meanTasks - (1+float64(p.MaxWidth))/2
	if meanEdges < 1 {
		meanEdges = 1
	}
	netDemandBits := meanEdges * float64(p.FlowBytes) * 8
	rate := rho * float64(nHosts) * 10e9 / netDemandBits

	ncfg := network.DefaultConfig(power.DataCenter10G(p.FatTreeK + 2))
	ncfg.SwitchSleepIdle = simtime.FromSeconds(p.SwitchSleepIdleSec)
	ncfg.ECMP = true // full-bisection fat-tree needs multipath to avoid core hotspots

	cfg := core.Config{
		Servers:       nHosts,
		ServerConfig:  sc,
		Topology:      topo,
		NetworkConfig: ncfg,
		CommMode:      core.CommFlow,
		Arrivals:      workload.Poisson{Rate: rate},
		Factory: workload.RandomDAG{
			Layers: p.Layers, MaxWidth: p.MaxWidth, MaxDeps: p.MaxDeps,
			MinSize: p.MinTask, MaxSize: p.MaxTask, EdgeBytes: p.FlowBytes,
		},
		MaxJobs: p.Jobs,
	}
	policy := "server-balanced"
	if networkAware {
		policy = "server-network-aware"
		cfg.Placer = &sched.NetworkAware{}
	} else {
		cfg.Placer = sched.LeastLoaded{} // strict load balancing (Server-Balanced)
	}
	res, err := p.run(seed, cfg)
	if err != nil {
		return Fig11Point{}, nil, err
	}
	pt := Fig11Point{
		Policy:       policy,
		Rho:          rho,
		ServerPowerW: res.MeanServerPowerW,
		SwitchPowerW: res.MeanNetworkPowerW,
		MeanLatS:     res.Latency.Mean(),
		P95LatS:      res.Latency.Percentile(95),
		SwitchWakes:  res.SwitchWakeups,
		ServerWakes:  res.ServerWakeups,
	}
	return pt, res.Latency.CDF(p.CDFPoints), nil
}

// report shows the per-utilization savings after the power table they
// summarize and before the CDF table.
func (r *Fig11Result) report() *Report {
	power := Part{Name: "fig11a", Table: r.Series}
	cdf := Part{Name: "fig11b", Table: r.CDFTable()}
	rep := &Report{Pinned: []Part{power, cdf}, Shown: []Part{power}}
	rhos := make([]float64, 0, len(r.ServerSavingPct))
	for rho := range r.ServerSavingPct {
		rhos = append(rhos, rho)
	}
	sort.Float64s(rhos)
	for _, rho := range rhos {
		rep.Shown = append(rep.Shown, linef(
			"rho=%.0f%%: server power saving %.1f%%, network power saving %.1f%%",
			rho*100, r.ServerSavingPct[rho], r.NetworkSavingPct[rho]))
	}
	rep.Shown = append(rep.Shown, cdf)
	return rep
}
