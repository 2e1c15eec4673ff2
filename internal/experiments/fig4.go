package experiments

import (
	"fmt"

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

// Fig4Params parameterizes the Sec. IV-A provisioning study: a 50-server
// four-core farm fed by a Wikipedia-like trace of simple 3–10 ms tasks,
// managed by min/max load-per-server thresholds.
type Fig4Params struct {
	Common
	Servers     int
	DurationSec float64
	MeanRate    float64 // arrivals/second over the trace
	MinLoad     float64 // jobs per active server
	MaxLoad     float64
	SampleEvery simtime.Time
}

// DefaultFig4 mirrors the paper: 50 four-core servers, Wikipedia trace.
func DefaultFig4() Fig4Params {
	return Fig4Params{
		Common:      Common{Seed: 7},
		Servers:     50,
		DurationSec: 1200,
		MeanRate:    6000, // ~30% farm utilization at 6.5ms mean service
		MinLoad:     0.8,
		MaxLoad:     2.5,
		SampleEvery: simtime.Second,
	}
}

// QuickFig4 shrinks the run for tests and benches.
func QuickFig4() Fig4Params {
	p := DefaultFig4()
	p.Servers = 20
	p.DurationSec = 120
	p.MeanRate = 1200
	return p
}

// Fig4Result carries the Fig. 4 time series plus summary statistics.
type Fig4Result struct {
	Series        *Table // time, jobsInSystem, activeServers
	MinActive     float64
	MaxActive     float64
	MeanActive    float64
	JobsCompleted int64
}

// Fig4 runs the provisioning experiment through the campaign runner.
// With Exec.Reps > 1 the time series keeps the base-seed replication
// (so plots stay deterministic) while the summary scalars become
// across-replication means.
func Fig4(p Fig4Params) (*Fig4Result, error) {
	rep, err := runner.One(p.Exec, p.Seed, "fig4", func(seed uint64) (*Fig4Result, error) {
		return fig4Run(p, seed)
	})
	if err != nil {
		return nil, err
	}
	out := rep[0]
	if p.Exec.RepCount() > 1 {
		out.MinActive = runner.MeanBy(rep, func(r *Fig4Result) float64 { return r.MinActive })
		out.MaxActive = runner.MeanBy(rep, func(r *Fig4Result) float64 { return r.MaxActive })
		out.MeanActive = runner.MeanBy(rep, func(r *Fig4Result) float64 { return r.MeanActive })
	}
	return out, nil
}

func fig4Run(p Fig4Params, seed uint64) (*Fig4Result, error) {
	tr := trace.SyntheticWikipedia(
		trace.DefaultWikipediaConfig(p.DurationSec, p.MeanRate),
		rng.New(seed).Split("wikipedia"))
	prov := sched.NewProvisioner(p.MinLoad, p.MaxLoad)

	cfg := core.Config{
		Servers:      p.Servers,
		ServerConfig: server.DefaultConfig(power.FourCoreServer()),
		Placer:       prov,
		Arrivals:     workload.NewTraceReplay(tr),
		Factory:      workload.SingleTask{Service: workload.WikipediaService()},
		Duration:     simtime.FromSeconds(p.DurationSec),
	}
	dc, err := p.build(seed, cfg)
	if err != nil {
		return nil, err
	}
	series := &Table{
		Title:  "Fig. 4: active jobs and active servers over time",
		Header: []string{"time_s", "jobs_in_system", "active_servers"},
	}
	var samples []float64
	dc.Eng.Every(p.SampleEvery, p.SampleEvery, cfg.Duration, func() {
		active := float64(prov.ActiveServers())
		series.Addf(dc.Eng.Now().Seconds(), float64(dc.Sched.JobsInSystem()), active)
		samples = append(samples, active)
	})
	res, err := dc.Run()
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{Series: series, JobsCompleted: res.JobsCompleted}
	if len(samples) > 0 {
		out.MinActive, out.MaxActive = samples[0], samples[0]
		sum := 0.0
		for _, v := range samples {
			if v < out.MinActive {
				out.MinActive = v
			}
			if v > out.MaxActive {
				out.MaxActive = v
			}
			sum += v
		}
		out.MeanActive = sum / float64(len(samples))
	}
	return out, nil
}

// Summary renders the headline numbers.
func (r *Fig4Result) Summary() string {
	return fmt.Sprintf("active servers min=%.0f mean=%.1f max=%.0f; jobs completed=%d",
		r.MinActive, r.MeanActive, r.MaxActive, r.JobsCompleted)
}

func (r *Fig4Result) report() *Report {
	parts := []Part{{Name: "fig4", Table: r.Series}, {Line: r.Summary()}}
	return &Report{Pinned: parts, Shown: parts}
}
