package experiments

import (
	"fmt"
	"sort"

	"holdcsim/internal/core"
	"holdcsim/internal/dist"
	"holdcsim/internal/power"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// Fig5Params parameterizes the Sec. IV-B single delay-timer exploration:
// for each workload and utilization, sweep τ and record farm energy. The
// paper's finding is a U-shaped curve whose optimum is consistent across
// utilizations for a given workload (0.4 s web search, 4.8 s web
// serving on their testbed).
type Fig5Params struct {
	Common
	Servers      int
	Cores        int
	Utilizations []float64
	// TausSec is the sweep grid; per-workload grids scale it by the
	// workload's TauScale.
	Workloads   []Fig5Workload
	DurationSec float64
}

// Fig5Workload names one service-time profile and its τ grid.
type Fig5Workload struct {
	Name    string
	Service dist.Sampler
	TausSec []float64
}

// DefaultFig5 mirrors the paper: 50 four-core servers; web search (5 ms)
// sweeping τ ∈ 0–5 s; web serving (120 ms) sweeping τ ∈ 0–20 s;
// utilizations 10/30/60%.
func DefaultFig5() Fig5Params {
	return Fig5Params{
		Common:       Common{Seed: 11},
		Servers:      50,
		Cores:        4,
		Utilizations: []float64{0.1, 0.3, 0.6},
		Workloads: []Fig5Workload{
			{Name: "web-search", Service: workload.WebSearchService(),
				TausSec: []float64{0, 0.1, 0.2, 0.4, 0.8, 1.5, 2.5, 4, 5}},
			{Name: "web-serving", Service: workload.WebServingService(),
				TausSec: []float64{0, 0.5, 1, 2, 4.8, 8, 12, 16, 20}},
		},
		DurationSec: 60,
	}
}

// QuickFig5 shrinks the sweep for tests and benches.
func QuickFig5() Fig5Params {
	p := DefaultFig5()
	p.Servers = 10
	p.Utilizations = []float64{0.1, 0.3}
	p.Workloads = []Fig5Workload{
		{Name: "web-search", Service: workload.WebSearchService(),
			TausSec: []float64{0, 0.4, 2.5, 5}},
		{Name: "web-serving", Service: workload.WebServingService(),
			TausSec: []float64{0, 1, 4.8, 20}},
	}
	p.DurationSec = 20
	return p
}

// Fig5Point is one sweep sample.
type Fig5Point struct {
	Workload string
	Rho      float64
	TauSec   float64
	EnergyJ  float64
	MeanLatS float64
	P95LatS  float64
	// Completion is completed/generated jobs within the horizon. A
	// pathological τ (constant suspend flapping) throttles the farm and
	// defers work past the window; such points are excluded from the
	// optimum search since their energy is not for the same work.
	Completion float64
}

// Fig5Result carries the full sweep plus per-(workload, rho) optima.
type Fig5Result struct {
	Points []Fig5Point
	Series *Table
	// OptimalTau maps "workload/rho" to the τ minimizing energy.
	OptimalTau map[string]float64
}

// Fig5 runs the delay-timer sweep. Every (workload, rho, τ) point is an
// independent runner.Run, so the campaign parallelizes across Exec
// workers with output identical to the serial sweep. With Exec.Reps > 1
// each point's metrics become across-replication means and the series
// gains energy stddev/CI95 and replication-count columns — the error
// bars the paper lacks.
func Fig5(p Fig5Params) (*Fig5Result, error) {
	header := []string{"workload", "rho", "tau_s", "energy_J", "mean_lat_s", "p95_lat_s", "completion"}
	nrep := p.Exec.RepCount()
	if nrep > 1 {
		header = append(header, "energy_std_J", "energy_ci95_J", "reps")
	}
	out := &Fig5Result{
		Series: &Table{
			Title:  "Fig. 5: energy vs single delay timer value",
			Header: header,
		},
		OptimalTau: make(map[string]float64),
	}

	var runs []runner.Run[Fig5Point]
	for _, wl := range p.Workloads {
		for _, rho := range p.Utilizations {
			for _, tau := range wl.TausSec {
				wl, rho, tau := wl, rho, tau
				// The Key excludes τ so replication i of every τ in one
				// (workload, rho) group shares an arrival stream
				// (common random numbers): the optimum search compares
				// paired sweeps, not seed noise.
				runs = append(runs, runner.Run[Fig5Point]{
					Key: fmt.Sprintf("fig5/%s/%g", wl.Name, rho),
					Do: func(seed uint64) (Fig5Point, error) {
						return fig5Point(p, wl, rho, tau, seed)
					},
				})
			}
		}
	}
	reps, err := runner.MapReps(p.Exec, p.Seed, runs)
	if err != nil {
		return nil, err
	}

	idx := 0
	for _, wl := range p.Workloads {
		for _, rho := range p.Utilizations {
			bestTau, bestE := 0.0, -1.0
			for _, tau := range wl.TausSec {
				rep := reps[idx]
				idx++
				pt := rep[0]
				energy := runner.SummarizeBy(rep, func(q Fig5Point) float64 { return q.EnergyJ })
				if nrep > 1 {
					pt.EnergyJ = energy.Mean
					pt.MeanLatS = runner.MeanBy(rep, func(q Fig5Point) float64 { return q.MeanLatS })
					pt.P95LatS = runner.MeanBy(rep, func(q Fig5Point) float64 { return q.P95LatS })
					pt.Completion = runner.MeanBy(rep, func(q Fig5Point) float64 { return q.Completion })
				}
				out.Points = append(out.Points, pt)
				row := []any{wl.Name, rho, tau, pt.EnergyJ, pt.MeanLatS,
					pt.P95LatS, pt.Completion}
				if nrep > 1 {
					row = append(row, energy.Std, energy.CI95, nrep)
				}
				out.Series.Addf(row...)
				if pt.Completion >= 0.99 && (bestE < 0 || pt.EnergyJ < bestE) {
					bestE = pt.EnergyJ
					bestTau = tau
				}
			}
			out.OptimalTau[fmt.Sprintf("%s/%.2g", wl.Name, rho)] = bestTau
		}
	}
	return out, nil
}

func fig5Point(p Fig5Params, wl Fig5Workload, rho, tau float64, seed uint64) (Fig5Point, error) {
	sc := server.DefaultConfig(power.FourCoreServer())
	sc.DelayTimerEnabled = true
	sc.DelayTimer = simtime.FromSeconds(tau)
	rate := workload.UtilizationRate(rho, p.Servers, p.Cores, wl.Service.Mean())
	cfg := core.Config{
		Servers:      p.Servers,
		ServerConfig: sc,
		Placer:       sched.PackFirst{},
		Arrivals:     workload.Poisson{Rate: rate},
		Factory:      workload.SingleTask{Service: wl.Service},
		Duration:     simtime.FromSeconds(p.DurationSec),
	}
	res, err := p.run(seed, cfg)
	if err != nil {
		return Fig5Point{}, err
	}
	completion := 1.0
	if res.JobsGenerated > 0 {
		completion = float64(res.JobsCompleted) / float64(res.JobsGenerated)
	}
	return Fig5Point{
		Workload: wl.Name, Rho: rho, TauSec: tau,
		EnergyJ: res.ServerEnergyJ, MeanLatS: res.Latency.Mean(),
		P95LatS: res.Latency.Percentile(95), Completion: completion,
	}, nil
}

// report lists the optima in key order, tab-separated for the golden
// file and aligned for the terminal.
func (r *Fig5Result) report() *Report {
	series := Part{Name: "fig5", Table: r.Series}
	rep := &Report{Pinned: []Part{series}, Shown: []Part{series}}
	keys := make([]string, 0, len(r.OptimalTau))
	for k := range r.OptimalTau {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rep.Pinned = append(rep.Pinned, linef("optimal_tau\t%s\t%.2g", k, r.OptimalTau[k]))
		rep.Shown = append(rep.Shown, linef("optimal tau %-18s = %.2g s", k, r.OptimalTau[k]))
	}
	return rep
}
