package experiments

import (
	"fmt"

	"holdcsim/internal/core"
	"holdcsim/internal/dist"
	"holdcsim/internal/power"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// Fig6Params parameterizes the Sec. IV-B dual delay-timer study: energy
// reduction relative to the Active-Idle baseline for two workloads
// ("Google" = web search, "Apache" = web serving) at 20 and 100 servers
// and utilizations 10/30/60%. The dual policy keeps a small high-τ pool
// warm and lets the low-τ majority sleep quickly.
type Fig6Params struct {
	Common
	FarmSizes    []int
	Cores        int
	Utilizations []float64
	Workloads    []Fig6Workload
	// HighFrac is the fraction of servers in the high-τ pool; zero
	// sizes the pool to the utilization plus headroom (the paper
	// explored pool sizes per setting and reports the best).
	HighFrac              float64
	TauHighSec, TauLowSec float64
	// SingleTauSec is the single-timer comparator (the policy Fig. 5
	// tunes); the paper reports up to 21% additional saving over it.
	SingleTauSec float64
	DurationSec  float64
}

// Fig6Workload names one service profile.
type Fig6Workload struct {
	Name    string
	Service dist.Sampler
}

// DefaultFig6 mirrors the paper's setup.
func DefaultFig6() Fig6Params {
	return Fig6Params{
		Common:       Common{Seed: 13},
		FarmSizes:    []int{20, 100},
		Cores:        4,
		Utilizations: []float64{0.1, 0.3, 0.6},
		Workloads: []Fig6Workload{
			{Name: "Google", Service: workload.WebSearchService()},
			{Name: "Apache", Service: workload.WebServingService()},
		},
		HighFrac:     0, // sized per utilization
		TauHighSec:   4.0,
		TauLowSec:    0.5,
		SingleTauSec: 0.4,
		DurationSec:  60,
	}
}

// QuickFig6 shrinks the grid for tests and benches.
func QuickFig6() Fig6Params {
	p := DefaultFig6()
	p.FarmSizes = []int{20}
	p.Utilizations = []float64{0.1, 0.3}
	p.DurationSec = 20
	return p
}

// Fig6Point is one grid cell.
type Fig6Point struct {
	Workload      string
	Servers       int
	Rho           float64
	BaselineJ     float64 // Active-Idle
	SingleTimerJ  float64
	DualTimerJ    float64
	ReductionPct  float64 // dual vs Active-Idle
	VsSinglePct   float64 // dual vs single timer
	DualP95LatS   float64
	SingleP95LatS float64
}

// Fig6Result carries the grid.
type Fig6Result struct {
	Points []Fig6Point
	Series *Table
}

// fig6Sample is one policy run's outcome.
type fig6Sample struct {
	EnergyJ float64
	P95LatS float64
}

// Fig6 runs the dual-timer comparison. Each (workload, farm, rho,
// policy) simulation is an independent runner.Run; with Exec.Reps > 1
// the energies become across-replication means and the series gains
// dual-energy stddev/CI95 and replication-count columns.
func Fig6(p Fig6Params) (*Fig6Result, error) {
	header := []string{"workload", "servers", "rho", "baseline_J", "single_J",
		"dual_J", "reduction_pct", "vs_single_pct", "dual_p95_s", "single_p95_s"}
	nrep := p.Exec.RepCount()
	if nrep > 1 {
		header = append(header, "dual_std_J", "dual_ci95_J", "reps")
	}
	out := &Fig6Result{Series: &Table{
		Title:  "Fig. 6: energy reduction with dual delay timers vs Active-Idle",
		Header: header,
	}}

	policies := []fig6Policy{policyActiveIdle, policySingleTimer, policyDualTimer}
	var runs []runner.Run[fig6Sample]
	for _, wl := range p.Workloads {
		for _, n := range p.FarmSizes {
			for _, rho := range p.Utilizations {
				for _, pol := range policies {
					wl, n, rho, pol := wl, n, rho, pol
					// The Key excludes the policy so replication i of
					// all three policies shares one arrival stream
					// (common random numbers): the reduction columns
					// compare paired runs.
					runs = append(runs, runner.Run[fig6Sample]{
						Key: fmt.Sprintf("fig6/%s/%d/%g", wl.Name, n, rho),
						Do: func(seed uint64) (fig6Sample, error) {
							e, p95, err := fig6Run(p, wl, n, rho, pol, seed)
							return fig6Sample{EnergyJ: e, P95LatS: p95}, err
						},
					})
				}
			}
		}
	}
	reps, err := runner.MapReps(p.Exec, p.Seed, runs)
	if err != nil {
		return nil, err
	}

	energy := func(s fig6Sample) float64 { return s.EnergyJ }
	p95 := func(s fig6Sample) float64 { return s.P95LatS }
	idx := 0
	for _, wl := range p.Workloads {
		for _, n := range p.FarmSizes {
			for _, rho := range p.Utilizations {
				baseRep, singleRep, dualRep := reps[idx], reps[idx+1], reps[idx+2]
				idx += len(policies)
				base := runner.MeanBy(baseRep, energy)
				single := runner.MeanBy(singleRep, energy)
				dual := runner.SummarizeBy(dualRep, energy)
				pt := Fig6Point{
					Workload: wl.Name, Servers: n, Rho: rho,
					BaselineJ: base, SingleTimerJ: single, DualTimerJ: dual.Mean,
					ReductionPct:  100 * (base - dual.Mean) / base,
					VsSinglePct:   100 * (single - dual.Mean) / single,
					DualP95LatS:   runner.MeanBy(dualRep, p95),
					SingleP95LatS: runner.MeanBy(singleRep, p95),
				}
				out.Points = append(out.Points, pt)
				row := []any{wl.Name, n, rho, base, single, dual.Mean,
					pt.ReductionPct, pt.VsSinglePct, pt.DualP95LatS, pt.SingleP95LatS}
				if nrep > 1 {
					row = append(row, dual.Std, dual.CI95, nrep)
				}
				out.Series.Addf(row...)
			}
		}
	}
	return out, nil
}

type fig6Policy int

const (
	policyActiveIdle fig6Policy = iota
	policySingleTimer
	policyDualTimer
)

func fig6Run(p Fig6Params, wl Fig6Workload, n int, rho float64, pol fig6Policy, seed uint64) (energyJ, p95 float64, err error) {
	sc := server.DefaultConfig(power.FourCoreServer())
	cfg := core.Config{
		Servers:      n,
		ServerConfig: sc,
		Arrivals: workload.Poisson{
			Rate: workload.UtilizationRate(rho, n, p.Cores, wl.Service.Mean())},
		Factory:  workload.SingleTask{Service: wl.Service},
		Duration: simtime.FromSeconds(p.DurationSec),
	}
	switch pol {
	case policyActiveIdle:
		cfg.Placer = sched.PackFirst{}
	case policySingleTimer:
		cfg.Placer = sched.PackFirst{}
		cfg.ServerConfig.DelayTimerEnabled = true
		cfg.ServerConfig.DelayTimer = simtime.FromSeconds(p.SingleTauSec)
	case policyDualTimer:
		// The paper explored "various settings including high τ and low
		// τ values, and number of servers associated [with] each" and
		// reports the best: unless a warm-pool fraction is given, sweep
		// three sizes and keep the minimum energy.
		fracs := []float64{p.HighFrac}
		if p.HighFrac <= 0 {
			fracs = []float64{min(rho+0.10, 0.95), min(rho+0.20, 0.95), min(rho+0.35, 0.95)}
		}
		bestE, bestP95 := -1.0, 0.0
		for _, frac := range fracs {
			high := int(float64(n)*frac + 0.5)
			if high < 1 {
				high = 1
			}
			sweep := cfg // copy; fresh policy per run
			sweep.Placer = sched.NewDualTimer(high,
				simtime.FromSeconds(p.TauHighSec), simtime.FromSeconds(p.TauLowSec))
			res, err := p.run(seed, sweep)
			if err != nil {
				return 0, 0, err
			}
			if bestE < 0 || res.ServerEnergyJ < bestE {
				bestE = res.ServerEnergyJ
				bestP95 = res.Latency.Percentile(95)
			}
		}
		return bestE, bestP95, nil
	}
	res, err := p.run(seed, cfg)
	if err != nil {
		return 0, 0, err
	}
	return res.ServerEnergyJ, res.Latency.Percentile(95), nil
}

func (r *Fig6Result) report() *Report {
	series := Part{Name: "fig6", Table: r.Series}
	rep := &Report{Pinned: []Part{series}, Shown: []Part{series}}
	for _, pt := range r.Points {
		rep.Shown = append(rep.Shown, linef(
			"%-7s servers=%-3d rho=%.1f: dual saves %5.1f%% vs Active-Idle, %5.1f%% vs single timer",
			pt.Workload, pt.Servers, pt.Rho, pt.ReductionPct, pt.VsSinglePct))
	}
	return rep
}
