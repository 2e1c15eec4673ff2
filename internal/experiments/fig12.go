package experiments

import (
	"fmt"

	"holdcsim/internal/core"
	"holdcsim/internal/dist"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
	"holdcsim/internal/trace"
	"holdcsim/internal/validate"
	"holdcsim/internal/workload"
)

// Fig12Params parameterizes the Sec. V-A server power validation: an
// NLANR-like HTTP arrival trace is replayed against (a) the event-driven
// simulator (one 10-core Xeon server, C0/C6 enabled as in the paper) and
// (b) the independent reference "physical server" model with OS noise.
// Per-second CPU-package power windows (RAPL-style energy-counter
// differences) are compared; the paper reports a 0.22 W mean difference
// (~1.3%) with ~1.5 W standard deviation.
type Fig12Params struct {
	Common
	DurationSec float64
	ServiceSec  float64
}

// DefaultFig12 mirrors the paper's 1000-second window (Fig. 12 shows
// 0–1000 s).
func DefaultFig12() Fig12Params {
	return Fig12Params{Common: Common{Seed: 29}, DurationSec: 1000, ServiceSec: 0.008}
}

// QuickFig12 shrinks the run for tests and benches.
func QuickFig12() Fig12Params {
	p := DefaultFig12()
	p.DurationSec = 120
	return p
}

// Fig12Result carries the power series table and the error metrics.
type Fig12Result struct {
	MeanAbsDiffW float64
	StdDiffW     float64
	MeanRefW     float64
	ErrorPct     float64
	Series       *Table
}

// Fig12 runs the server power validation through the campaign runner.
// With Exec.Reps > 1 the error metrics become across-replication means
// while the power series keep the base-seed replication.
func Fig12(p Fig12Params) (*Fig12Result, error) {
	rep, err := runner.One(p.Exec, p.Seed, "fig12", func(seed uint64) (*Fig12Result, error) {
		return fig12Run(p, seed)
	})
	if err != nil {
		return nil, err
	}
	out := rep[0]
	if p.Exec.RepCount() > 1 {
		out.MeanAbsDiffW = runner.MeanBy(rep, func(r *Fig12Result) float64 { return r.MeanAbsDiffW })
		out.StdDiffW = runner.MeanBy(rep, func(r *Fig12Result) float64 { return r.StdDiffW })
		out.MeanRefW = runner.MeanBy(rep, func(r *Fig12Result) float64 { return r.MeanRefW })
		out.ErrorPct = runner.MeanBy(rep, func(r *Fig12Result) float64 { return r.ErrorPct })
	}
	return out, nil
}

func fig12Run(p Fig12Params, seed uint64) (*Fig12Result, error) {
	master := rng.New(seed)
	// The paper drives the server with httperf at web-service rates; the
	// NLANR-like generator is scaled up so the 10-core box sees a few
	// busy cores on average, matching Fig. 12's 5-30 W power range.
	tr := trace.SyntheticNLANR(p.DurationSec, 800, 60, master.Split("nlanr"))

	// Event-driven simulation of one 10-core server. The paper enables
	// only C0 and C6 for the validation runs; mirror that by promoting
	// straight to C6.
	prof := power.XeonE5_2680()
	sc := server.DefaultConfig(prof)
	sc.IdleToC1 = -1
	sc.IdleToC3 = -1
	sc.IdleToC6 = 200 * simtime.Microsecond
	// The validation platform keeps the uncore powered (RAPL shows the
	// package floor); only core C0/C6 toggle, as in the paper's setup.
	sc.PkgC6Enabled = false
	cfg := core.Config{
		Servers:      1,
		ServerConfig: sc,
		Placer:       sched.LeastLoaded{},
		Arrivals:     workload.NewTraceReplay(tr),
		Factory:      workload.SingleTask{Service: dist.Deterministic{Value: p.ServiceSec}},
		Duration:     simtime.FromSeconds(p.DurationSec),
	}
	dc, err := p.build(seed, cfg)
	if err != nil {
		return nil, err
	}
	// Sample the CPU energy counter each second; window power is the
	// energy difference (exactly how RAPL is read).
	srv := dc.Servers[0]
	var sim []float64
	prevE := 0.0
	dc.Eng.Every(simtime.Second, simtime.Second, cfg.Duration, func() {
		e := srv.CPUEnergyTo(dc.Eng.Now())
		sim = append(sim, e-prevE)
		prevE = e
	})
	if _, err := dc.Run(); err != nil {
		return nil, err
	}

	// Independent reference model on the same trace.
	refCfg := validate.DefaultReferenceServer()
	refCfg.ServiceSec = p.ServiceSec
	ref := validate.ReferenceServerPower(tr, refCfg, master.Split("reference"))

	n := len(sim)
	if len(ref) < n {
		n = len(ref)
	}
	sim, ref = sim[:n], ref[:n]
	mad, sd := stats.CompareSeries(sim, ref)
	meanRef := 0.0
	for _, v := range ref {
		meanRef += v
	}
	if n > 0 {
		meanRef /= float64(n)
	}
	out := &Fig12Result{
		MeanAbsDiffW: mad,
		StdDiffW:     sd,
		MeanRefW:     meanRef,
		Series: &Table{
			Title:  "Fig. 12: simulated vs physical (reference) server power over time",
			Header: []string{"time_s", "physical_W", "simulated_W"},
		},
	}
	if meanRef > 0 {
		out.ErrorPct = 100 * mad / meanRef
	}
	for i := 0; i < n; i++ {
		out.Series.Addf(i+1, ref[i], sim[i])
	}
	return out, nil
}

// Summary renders the validation verdict.
func (r *Fig12Result) Summary() string {
	return fmt.Sprintf("server validation: mean |diff| = %.3f W (%.2f%% of %.2f W), stddev = %.3f W",
		r.MeanAbsDiffW, r.ErrorPct, r.MeanRefW, r.StdDiffW)
}

func (r *Fig12Result) report() *Report {
	parts := []Part{{Name: "fig12", Table: r.Series, FileOnly: true}, {Line: r.Summary()}}
	return &Report{Pinned: parts, Shown: parts}
}
