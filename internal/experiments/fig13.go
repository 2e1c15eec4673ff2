package experiments

import (
	"fmt"

	"holdcsim/internal/core"
	"holdcsim/internal/job"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
	"holdcsim/internal/topology"
	"holdcsim/internal/trace"
	"holdcsim/internal/validate"
	"holdcsim/internal/workload"
)

// Fig13Params parameterizes the Sec. V-B switch power validation: 24
// servers on a star topology serve a Wikipedia-like workload with load
// balancing; each request pushes request/response packets through the
// server's switch port. The simulator logs per-second port states; the
// switch power model (base 14.7 W + 0.23 W per active port) converts the
// log to a power series, and the reference "physical switch" model (same
// log + measurement noise + management-CPU drift) stands in for the
// Cisco WS-C2960-24-S. The paper reports <0.12 W mean difference with
// 0.04 W standard deviation over 2 hours.
type Fig13Params struct {
	Common
	Servers       int
	DurationSec   float64
	MeanRate      float64 // requests/second across the cluster
	RequestBytes  int64
	ResponseBytes int64
	// LPIIdleSec keeps a port "active" this long after its last packet;
	// with 1 s logging this is what makes port states track request
	// activity, as in the paper's replay.
	LPIIdleSec float64
}

// DefaultFig13 mirrors the paper's 2-hour validation.
func DefaultFig13() Fig13Params {
	return Fig13Params{
		Common:        Common{Seed: 31},
		Servers:       24,
		DurationSec:   7200,
		MeanRate:      40,
		RequestBytes:  2 * 1024,
		ResponseBytes: 48 * 1024,
		LPIIdleSec:    1.0,
	}
}

// QuickFig13 shrinks the run for tests and benches.
func QuickFig13() Fig13Params {
	p := DefaultFig13()
	p.DurationSec = 300
	return p
}

// Fig13Result carries the two power series and error metrics.
type Fig13Result struct {
	SimulatedW   []float64
	ReferenceW   []float64
	ActivePorts  []int
	MeanAbsDiffW float64
	StdDiffW     float64
	Series       *Table
}

// Fig13 runs the switch power validation through the campaign runner.
// With Exec.Reps > 1 the error metrics become across-replication means
// while the power series keep the base-seed replication.
func Fig13(p Fig13Params) (*Fig13Result, error) {
	rep, err := runner.One(p.Exec, p.Seed, "fig13", func(seed uint64) (*Fig13Result, error) {
		return fig13Run(p, seed)
	})
	if err != nil {
		return nil, err
	}
	out := rep[0]
	if p.Exec.RepCount() > 1 {
		out.MeanAbsDiffW = runner.MeanBy(rep, func(r *Fig13Result) float64 { return r.MeanAbsDiffW })
		out.StdDiffW = runner.MeanBy(rep, func(r *Fig13Result) float64 { return r.StdDiffW })
	}
	return out, nil
}

func fig13Run(p Fig13Params, seed uint64) (*Fig13Result, error) {
	master := rng.New(seed)
	tr := trace.SyntheticWikipedia(
		trace.DefaultWikipediaConfig(p.DurationSec, p.MeanRate), master.Split("wikipedia"))

	// Star of Servers hosts plus one front-end host that originates
	// requests; the switch profile gets one extra port for the uplink,
	// which is excluded from the logged 24 ports (the paper logs the 24
	// server-facing ports).
	prof := power.Cisco2960_24()
	prof.PortsPerLineCard = p.Servers + 1

	ncfg := network.DefaultConfig(prof)
	ncfg.LPIIdle = simtime.FromSeconds(p.LPIIdleSec)

	sc := server.DefaultConfig(power.XeonE5_2680())
	cfg := core.Config{
		Servers:       p.Servers,
		ServerConfig:  sc,
		Topology:      topology.Star{Hosts: p.Servers + 1, RateBps: 1e9},
		NetworkConfig: ncfg,
		CommMode:      core.CommPacket,
		Placer:        sched.LeastLoaded{}, // the paper's load-balanced policy
		Arrivals:      workload.NewTraceReplay(tr),
		Factory:       workload.SingleTask{Service: workload.WikipediaService()},
		Duration:      simtime.FromSeconds(p.DurationSec),
	}
	dc, err := p.build(seed, cfg)
	if err != nil {
		return nil, err
	}
	// Request/response traffic rides on dispatch and completion hooks:
	// each dispatched request pushes RequestBytes from the front end
	// (the star's extra host) to the assigned server; each completion
	// pushes ResponseBytes back.
	frontend := dc.Graph.Hosts()[p.Servers]
	dc.Sched.OnDispatch(func(srv *server.Server, _ *job.Task) {
		_ = dc.Net.TransferPackets(frontend, dc.HostOf(srv.ID()), p.RequestBytes, nil)
	})
	for _, srv := range dc.Servers {
		host := dc.HostOf(srv.ID())
		srv.OnTaskDone(func(*server.Server, *job.Task) {
			_ = dc.Net.TransferPackets(host, frontend, p.ResponseBytes, nil)
		})
	}

	sw := dc.Net.Switches()[0]
	var active []int
	dc.Eng.Every(simtime.Second, simtime.Second, cfg.Duration, func() {
		states := sw.PortStates()[:p.Servers] // server-facing ports only
		n := 0
		for _, st := range states {
			if st == power.PortActive {
				n++
			}
		}
		active = append(active, n)
	})

	if _, err := dc.Run(); err != nil {
		return nil, err
	}

	// Simulated power from the logged states (base + per active port),
	// and the reference "physical" measurement from the same log.
	base := 14.7
	sim := make([]float64, len(active))
	for i, n := range active {
		sim[i] = base + float64(n)*0.23
	}
	refCfg := validate.DefaultReferenceSwitch()
	ref := validate.ReferenceSwitchPower(active, refCfg, master.Split("reference"))

	mad, sd := stats.CompareSeries(sim, ref)
	out := &Fig13Result{
		SimulatedW:   sim,
		ReferenceW:   ref,
		ActivePorts:  active,
		MeanAbsDiffW: mad,
		StdDiffW:     sd,
		Series: &Table{
			Title:  "Fig. 13: simulated vs physical (reference) switch power",
			Header: []string{"time_s", "physical_W", "simulated_W", "active_ports"},
		},
	}
	for i := range sim {
		out.Series.Addf(i+1, ref[i], sim[i], active[i])
	}
	return out, nil
}

// Summary renders the validation verdict.
func (r *Fig13Result) Summary() string {
	return fmt.Sprintf("switch validation: mean |diff| = %.3f W, stddev = %.3f W over %d samples",
		r.MeanAbsDiffW, r.StdDiffW, len(r.SimulatedW))
}

// Segment extracts the [fromSec, toSec) window of both power series as a
// new table — the paper's Fig. 14 shows two such 20-minute segments
// (80–100 min, where the traces match exactly, and 40–60 min, where the
// physical switch drifts slightly above the simulation).
func (r *Fig13Result) Segment(title string, fromSec, toSec int) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"time_s", "physical_W", "simulated_W"},
	}
	for i := fromSec; i < toSec && i < len(r.SimulatedW); i++ {
		t.Addf(i+1, r.ReferenceW[i], r.SimulatedW[i])
	}
	return t
}

// report adds Fig. 14's two representative 20-minute segments of the
// series: views of pinned data, so shown but not pinned again.
func (r *Fig13Result) report() *Report {
	series := Part{Name: "fig13", Table: r.Series, FileOnly: true}
	summary := Part{Line: r.Summary()}
	return &Report{
		Pinned: []Part{series, summary},
		Shown: []Part{series,
			{Name: "fig14a", FileOnly: true, Table: r.Segment(
				"Fig. 14a: switch power trace, segment 1 (80-100 min)", 80*60, 100*60)},
			{Name: "fig14b", FileOnly: true, Table: r.Segment(
				"Fig. 14b: switch power trace, segment 2 (40-60 min)", 40*60, 60*60)},
			summary},
	}
}
