package experiments

import (
	"fmt"

	"holdcsim/internal/core"
	"holdcsim/internal/power"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// Fig8Params parameterizes the Sec. IV-C energy-latency optimization
// study: a 10-server × 10-core Xeon E5-2680 farm under the workload
// adaptive dual-pool framework (WASP). Active-pool servers use only
// shallow sleep (package C6); sleep-pool servers transition through
// package C6 into suspend-to-RAM after τ. The figure reports each
// utilization's mean state residency across the five states.
type Fig8Params struct {
	Common
	Servers      int
	Utilizations []float64
	Workloads    []Fig6Workload // reuse the named-service shape
	TWakeup      float64
	TSleep       float64
	TauSec       float64
	DurationSec  float64
}

// DefaultFig8 mirrors the paper's setup.
func DefaultFig8() Fig8Params {
	return Fig8Params{
		Common:       Common{Seed: 17},
		Servers:      10,
		Utilizations: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
		Workloads: []Fig6Workload{
			{Name: "web-search", Service: workload.WebSearchService()},
			{Name: "web-serving", Service: workload.WebServingService()},
		},
		// Thresholds in jobs per active server: the pool saturates its
		// members (~8 of 10 cores committed) before waking another, so
		// active residency tracks utilization and parked servers reach
		// system sleep — the Fig. 8 behaviour.
		TWakeup:     8.0,
		TSleep:      4.0,
		TauSec:      1.0,
		DurationSec: 60,
	}
}

// QuickFig8 shrinks the grid for tests and benches.
func QuickFig8() Fig8Params {
	p := DefaultFig8()
	p.Utilizations = []float64{0.1, 0.5, 0.9}
	p.Workloads = p.Workloads[:1]
	p.DurationSec = 20
	return p
}

// Fig8Row is one stacked bar: residency fractions at one utilization.
type Fig8Row struct {
	Workload  string
	Rho       float64
	Active    float64
	WakeUp    float64
	Idle      float64
	PkgC6     float64
	SysSleep  float64
	P90LatS   float64
	QoSTarget float64 // 2x mean service time (the paper's QoS setting)
}

// Fig8Result carries all rows.
type Fig8Result struct {
	Rows   []Fig8Row
	Series *Table
}

// Fig8 runs the residency study. Each (workload, rho) point is an
// independent runner.Run; with Exec.Reps > 1 every residency fraction is
// an across-replication mean and the series gains active-residency
// stddev/CI95 and replication-count columns.
func Fig8(p Fig8Params) (*Fig8Result, error) {
	header := []string{"workload", "rho", "active", "wakeup", "idle",
		"pkgc6", "syssleep", "p90_lat_s"}
	nrep := p.Exec.RepCount()
	if nrep > 1 {
		header = append(header, "active_std", "active_ci95", "reps")
	}
	out := &Fig8Result{Series: &Table{
		Title:  "Fig. 8: state residency under the energy-latency optimization framework",
		Header: header,
	}}

	var runs []runner.Run[Fig8Row]
	for _, wl := range p.Workloads {
		for _, rho := range p.Utilizations {
			wl, rho := wl, rho
			runs = append(runs, runner.Run[Fig8Row]{
				Key: fmt.Sprintf("fig8/%s/%g", wl.Name, rho),
				Do: func(seed uint64) (Fig8Row, error) {
					return fig8Point(p, wl, rho, seed)
				},
			})
		}
	}
	reps, err := runner.MapReps(p.Exec, p.Seed, runs)
	if err != nil {
		return nil, err
	}

	for _, rep := range reps {
		row := rep[0]
		active := runner.SummarizeBy(rep, func(r Fig8Row) float64 { return r.Active })
		if nrep > 1 {
			row.Active = active.Mean
			row.WakeUp = runner.MeanBy(rep, func(r Fig8Row) float64 { return r.WakeUp })
			row.Idle = runner.MeanBy(rep, func(r Fig8Row) float64 { return r.Idle })
			row.PkgC6 = runner.MeanBy(rep, func(r Fig8Row) float64 { return r.PkgC6 })
			row.SysSleep = runner.MeanBy(rep, func(r Fig8Row) float64 { return r.SysSleep })
			row.P90LatS = runner.MeanBy(rep, func(r Fig8Row) float64 { return r.P90LatS })
		}
		out.Rows = append(out.Rows, row)
		cells := []any{row.Workload, row.Rho, row.Active, row.WakeUp, row.Idle,
			row.PkgC6, row.SysSleep, row.P90LatS}
		if nrep > 1 {
			cells = append(cells, active.Std, active.CI95, nrep)
		}
		out.Series.Addf(cells...)
	}
	return out, nil
}

func fig8Point(p Fig8Params, wl Fig6Workload, rho float64, seed uint64) (Fig8Row, error) {
	prof := power.XeonE5_2680()
	sc := server.DefaultConfig(prof)
	cfg := core.Config{
		Servers:      p.Servers,
		ServerConfig: sc,
		Placer:       sched.NewAdaptivePool(p.TWakeup, p.TSleep, simtime.FromSeconds(p.TauSec)),
		Arrivals: workload.Poisson{
			Rate: workload.UtilizationRate(rho, p.Servers, prof.Cores, wl.Service.Mean())},
		Factory:  workload.SingleTask{Service: wl.Service},
		Duration: simtime.FromSeconds(p.DurationSec),
	}
	res, err := p.run(seed, cfg)
	if err != nil {
		return Fig8Row{}, err
	}
	return Fig8Row{
		Workload:  wl.Name,
		Rho:       rho,
		Active:    res.Residency[server.StateActive],
		WakeUp:    res.Residency[server.StateWakeUp],
		Idle:      res.Residency[server.StateIdle],
		PkgC6:     res.Residency[server.StatePkgC6],
		SysSleep:  res.Residency[server.StateSysSleep],
		P90LatS:   res.Latency.Percentile(90),
		QoSTarget: 2 * wl.Service.Mean(),
	}, nil
}

func (r *Fig8Result) report() *Report {
	parts := []Part{{Name: "fig8", Table: r.Series}}
	return &Report{Pinned: parts, Shown: parts}
}
