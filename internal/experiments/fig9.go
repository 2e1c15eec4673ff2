package experiments

import (
	"holdcsim/internal/core"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/trace"
	"holdcsim/internal/workload"
)

// Fig9Params parameterizes the Sec. IV-C per-server energy breakdown:
// the same 10-server farm and Wikipedia-like arrivals under (a) the
// delay-timer policy and (b) the workload-adaptive scheduler. The paper
// observes that the adaptive framework concentrates work on a small
// subset of servers and saves ~39% total energy versus the delay-timer
// approach, whose consumption is nearly uniform across servers.
type Fig9Params struct {
	Common
	Servers     int
	MeanRate    float64 // arrivals/second (Wikipedia-like trace mean)
	DurationSec float64
	TauSec      float64 // delay timer for policy (a)
	TWakeup     float64 // adaptive thresholds for policy (b)
	TSleep      float64
}

// DefaultFig9 mirrors the paper's setup.
func DefaultFig9() Fig9Params {
	return Fig9Params{
		Common:      Common{Seed: 19},
		Servers:     10,
		MeanRate:    2500, // ~30% of a 10x10-core farm at 12.5ms services
		DurationSec: 300,
		TauSec:      1.0,
		TWakeup:     8.0,
		TSleep:      4.0,
	}
}

// QuickFig9 shrinks the run for tests and benches.
func QuickFig9() Fig9Params {
	p := DefaultFig9()
	p.DurationSec = 30
	return p
}

// Fig9Result carries per-server energy for both policies.
type Fig9Result struct {
	TimerPerServer    []core.ServerEnergy
	AdaptivePerServer []core.ServerEnergy
	TimerTotalJ       float64
	AdaptiveTotalJ    float64
	SavingPct         float64
	Series            *Table
}

// fig9Sample is one policy run's outcome.
type fig9Sample struct {
	PerServer []core.ServerEnergy
	TotalJ    float64
}

// Fig9 runs both policies over the same trace as independent
// runner.Runs. With Exec.Reps > 1 the totals and per-server breakdowns
// become across-replication means (component-wise for the breakdown).
func Fig9(p Fig9Params) (*Fig9Result, error) {
	// Both policies share one Key so replication i of each runs the
	// same trace (common random numbers): SavingPct compares paired
	// runs, not trace-to-trace noise.
	runs := []runner.Run[fig9Sample]{
		{Key: "fig9", Do: func(seed uint64) (fig9Sample, error) {
			return fig9Run(p, false, seed)
		}},
		{Key: "fig9", Do: func(seed uint64) (fig9Sample, error) {
			return fig9Run(p, true, seed)
		}},
	}
	reps, err := runner.MapReps(p.Exec, p.Seed, runs)
	if err != nil {
		return nil, err
	}
	timer := fig9Aggregate(reps[0])
	adaptive := fig9Aggregate(reps[1])

	out := &Fig9Result{
		TimerPerServer:    timer.PerServer,
		AdaptivePerServer: adaptive.PerServer,
		TimerTotalJ:       timer.TotalJ,
		AdaptiveTotalJ:    adaptive.TotalJ,
		SavingPct:         100 * (timer.TotalJ - adaptive.TotalJ) / timer.TotalJ,
		Series: &Table{
			Title: "Fig. 9: per-server energy (kJ) under delay-timer vs workload-adaptive policies",
			Header: []string{"server", "timer_cpu_kJ", "timer_dram_kJ", "timer_platform_kJ",
				"adaptive_cpu_kJ", "adaptive_dram_kJ", "adaptive_platform_kJ"},
		},
	}
	for i := 0; i < p.Servers; i++ {
		t := timer.PerServer[i]
		a := adaptive.PerServer[i]
		out.Series.Addf(i, t.CPU/1e3, t.DRAM/1e3, t.Platform/1e3,
			a.CPU/1e3, a.DRAM/1e3, a.Platform/1e3)
	}
	return out, nil
}

// fig9Aggregate means the replications of one policy; a single
// replication passes through untouched.
func fig9Aggregate(rep []fig9Sample) fig9Sample {
	if len(rep) == 1 {
		return rep[0]
	}
	out := fig9Sample{
		PerServer: make([]core.ServerEnergy, len(rep[0].PerServer)),
		TotalJ:    runner.MeanBy(rep, func(s fig9Sample) float64 { return s.TotalJ }),
	}
	for i := range out.PerServer {
		for _, s := range rep {
			out.PerServer[i].CPU += s.PerServer[i].CPU
			out.PerServer[i].DRAM += s.PerServer[i].DRAM
			out.PerServer[i].Platform += s.PerServer[i].Platform
		}
		out.PerServer[i].CPU /= float64(len(rep))
		out.PerServer[i].DRAM /= float64(len(rep))
		out.PerServer[i].Platform /= float64(len(rep))
	}
	return out
}

func fig9Run(p Fig9Params, adaptive bool, seed uint64) (fig9Sample, error) {
	tr := trace.SyntheticWikipedia(
		trace.DefaultWikipediaConfig(p.DurationSec, p.MeanRate),
		rng.New(seed).Split("wikipedia"))

	prof := power.XeonE5_2680()
	sc := server.DefaultConfig(prof)
	cfg := core.Config{
		Servers:      p.Servers,
		ServerConfig: sc,
		Arrivals:     workload.NewTraceReplay(tr),
		Factory: workload.SingleTask{
			Service: workload.WebSearchService()},
		Duration: simtime.FromSeconds(p.DurationSec),
	}
	if adaptive {
		cfg.Placer = sched.NewAdaptivePool(p.TWakeup, p.TSleep, simtime.FromSeconds(p.TauSec))
	} else {
		// The paper's delay-timer comparator load-balances across
		// the farm (its per-server energy is "almost uniform",
		// Fig. 9), with each server running its own τ timer.
		cfg.Placer = sched.LeastLoaded{}
		cfg.ServerConfig.DelayTimerEnabled = true
		cfg.ServerConfig.DelayTimer = simtime.FromSeconds(p.TauSec)
	}
	res, err := p.run(seed, cfg)
	if err != nil {
		return fig9Sample{}, err
	}
	return fig9Sample{PerServer: res.PerServer, TotalJ: res.ServerEnergyJ}, nil
}

func (r *Fig9Result) report() *Report {
	series := Part{Name: "fig9", Table: r.Series}
	return &Report{
		Pinned: []Part{series, linef("totals_kJ\t%.6g\t%.6g\t%.6g",
			r.TimerTotalJ/1e3, r.AdaptiveTotalJ/1e3, r.SavingPct)},
		Shown: []Part{series, linef(
			"delay-timer total %.1f kJ, workload-adaptive total %.1f kJ: %.1f%% saving",
			r.TimerTotalJ/1e3, r.AdaptiveTotalJ/1e3, r.SavingPct)},
	}
}
