// Package core assembles HolDCSim's modules into a runnable data center
// (paper Fig. 1): it builds the server farm, lays the network over a
// topology, wires the global scheduler and workload generator, runs the
// event loop, and collects the runtime statistics the paper reports —
// job latency distributions, per-component energy and state residency.
package core

import (
	"fmt"

	"holdcsim/internal/engine"
	"holdcsim/internal/fault"
	"holdcsim/internal/invariant"
	"holdcsim/internal/job"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/network"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
	"holdcsim/internal/topology"
	"holdcsim/internal/workload"
)

// CommMode selects how DAG edge data crosses the network.
type CommMode int

// Communication modes (paper Sec. III-B: packet-level and flow-based).
const (
	// CommNone makes transfers instantaneous (server-only studies).
	CommNone CommMode = iota
	// CommFlow uses fluid max-min fair flows.
	CommFlow
	// CommPacket uses MTU-sized store-and-forward packets.
	CommPacket
)

// String implements fmt.Stringer.
func (m CommMode) String() string {
	switch m {
	case CommNone:
		return "none"
	case CommFlow:
		return "flow"
	case CommPacket:
		return "packet"
	}
	return fmt.Sprintf("CommMode(%d)", int(m))
}

// MarshalText implements encoding.TextMarshaler (scenario-file codec).
func (m CommMode) MarshalText() ([]byte, error) {
	switch m {
	case CommNone, CommFlow, CommPacket:
		return []byte(m.String()), nil
	}
	return nil, fmt.Errorf("core: unknown comm mode %d", int(m))
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *CommMode) UnmarshalText(b []byte) error {
	switch string(b) {
	case "none":
		*m = CommNone
	case "flow":
		*m = CommFlow
	case "packet":
		*m = CommPacket
	default:
		return fmt.Errorf("core: unknown comm mode %q (want none, flow or packet)", b)
	}
	return nil
}

// Config describes one simulation experiment.
type Config struct {
	// Seed drives every random stream in the run.
	Seed uint64

	// Servers is the farm size; ServerConfig is the per-server template.
	// ConfigureServer optionally specializes individual servers
	// (heterogeneous farms, per-pool timers).
	Servers         int
	ServerConfig    server.Config
	ConfigureServer func(i int, c *server.Config)

	// Topology is optional; when set, server i binds to host i and a
	// network is instantiated with NetworkConfig. CommMode selects the
	// transfer model for DAG edges.
	Topology      topology.Topology
	NetworkConfig network.Config
	CommMode      CommMode

	// Scheduling. Placer is the whole policy; callbacks, a start hook or
	// the live network it gets by implementing sched.Controller/Starter/Binder.
	Placer         sched.Placer
	UseGlobalQueue bool

	// Workload.
	Arrivals workload.ArrivalProcess
	Factory  workload.JobFactory
	MaxJobs  int64

	// Duration ends the run at a fixed virtual time; 0 runs until the
	// event queue drains (requires MaxJobs or a finite trace).
	Duration simtime.Time
	// Warmup excludes jobs arriving before this time from latency
	// statistics (energy accounting always covers the full run).
	Warmup simtime.Time

	// Faults, when non-nil, attaches the fault injector
	// (internal/fault): a deterministic, seed-derived timeline of server
	// crashes, link flaps, and switch deaths is scheduled through the
	// engine, with the spec's orphan policy governing stranded tasks. A
	// non-nil spec with zero events still attaches the (empty) injector
	// and ledger — the differential fault suite relies on that being
	// output-invisible. Nil leaves the fault machinery entirely unwired.
	Faults *fault.Spec

	// Check attaches a runtime invariant checker (internal/invariant):
	// conservation laws are verified at dispatch boundaries during the
	// run and in full at the end of Run, which then returns an error if
	// any law was violated. Checking is observation-only — a checked
	// run produces byte-identical results — and costs nothing when
	// false (the scheduler's subscriber lists stay empty).
	Check bool
	// CheckStationary additionally verifies the statistical Little's
	// law (L = λW within the 95% CI) at the end of the run. Enable only
	// for runs expected to be near steady state.
	CheckStationary bool

	// Cover, when non-nil, collects model-state coverage into the given
	// map: residency transitions, queue-depth buckets, drop sites,
	// placement and orphan branches, fault events by domain and cascade
	// depths (internal/modelcov). Collection is observation-only — an
	// instrumented run produces byte-identical results — and costs
	// nothing when nil (each hook is a single nil check).
	Cover *modelcov.Map
}

// CompactStatsAbove is the farm size beyond which result collection
// switches to hyperscale mode, and the reservoir capacity it degrades
// to: the job-latency tally becomes a bounded reservoir (exact moments,
// approximate percentiles) instead of retaining every sample, and
// Results.PerServer is omitted. Farms at or below it — including every
// paper-scale preset — collect everything.
const CompactStatsAbove = 65536

// DataCenter is a built simulation ready to run.
type DataCenter struct {
	Eng     *engine.Engine
	Farm    *server.Farm // owns the servers; shared sleep planner
	Servers []*server.Server
	Net     *network.Network // nil without a topology
	Graph   *topology.Graph  // nil without a topology
	Sched   *sched.Scheduler
	Gen     *workload.Generator

	cfg      Config
	hostOf   []topology.NodeID
	checker  *invariant.Checker // nil unless cfg.Check
	injector *fault.Injector    // nil unless cfg.Faults
	compact  bool               // hyperscale collection mode

	latency *stats.Tally
}

// Build validates the config and constructs the data center.
func Build(cfg Config) (*DataCenter, error) { return build(cfg, CompactStatsAbove) }

// build is Build with the compact-collection threshold as a parameter,
// so a test can cross it with eight servers.
func build(cfg Config, compactAbove int) (*DataCenter, error) {
	if cfg.Servers <= 0 {
		return nil, fmt.Errorf("core: need at least one server")
	}
	if cfg.Arrivals == nil || cfg.Factory == nil {
		return nil, fmt.Errorf("core: workload arrivals and factory are required")
	}
	if cfg.Duration == 0 && cfg.MaxJobs == 0 {
		// A pure stochastic process with no horizon never terminates.
		if _, isTrace := cfg.Arrivals.(*workload.TraceReplay); !isTrace {
			return nil, fmt.Errorf("core: unbounded run (set Duration or MaxJobs)")
		}
	}
	eng := engine.New()
	master := rng.New(cfg.Seed)

	dc := &DataCenter{
		Eng:     eng,
		cfg:     cfg,
		compact: cfg.Servers > compactAbove,
	}
	if dc.compact {
		// Hyperscale: retaining one float64 per job would dominate
		// memory, so keep exact moments plus a bounded reservoir for
		// percentiles.
		dc.latency = stats.NewReservoirTally("job-latency-seconds",
			CompactStatsAbove, cfg.Seed)
	} else {
		dc.latency = stats.NewTally("job-latency-seconds")
	}

	// A run of known length records its latencies without growing the
	// buffer (bounded, so a MaxJobs used as "no limit" reserves little).
	dc.latency.Reserve(int(min(cfg.MaxJobs, 1<<20)))

	// Server farm. The farm's shared sleep planner replaces one pending
	// timer event per idle server with a single heap entry, so a fully
	// asleep farm holds zero queued events regardless of size.
	dc.Farm = server.NewFarm(eng)
	dc.Servers = make([]*server.Server, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		sc := cfg.ServerConfig
		if sc.Profile == nil {
			return nil, fmt.Errorf("core: server config needs a power profile")
		}
		if cfg.ConfigureServer != nil {
			cfg.ConfigureServer(i, &sc)
		}
		srv, err := dc.Farm.Add(i, sc)
		if err != nil {
			return nil, fmt.Errorf("core: server %d: %w", i, err)
		}
		srv.SetCover(cfg.Cover)
		dc.Servers[i] = srv
	}

	// Network.
	var transfer sched.TransferFn
	if cfg.Topology != nil {
		g, err := cfg.Topology.Build()
		if err != nil {
			return nil, err
		}
		if err := g.Validate(); err != nil {
			return nil, err
		}
		hosts := g.Hosts()
		if len(hosts) < cfg.Servers {
			return nil, fmt.Errorf("core: topology %s has %d hosts for %d servers",
				cfg.Topology.Name(), len(hosts), cfg.Servers)
		}
		net, err := network.New(eng, g, cfg.NetworkConfig)
		if err != nil {
			return nil, err
		}
		dc.Graph = g
		dc.Net = net
		net.SetCover(cfg.Cover)
		dc.hostOf = hosts[:cfg.Servers]
		switch cfg.CommMode {
		case CommFlow:
			transfer = func(from, to int, bytes int64, done func()) {
				if err := net.TransferFlow(dc.hostOf[from], dc.hostOf[to], bytes, done); err != nil {
					panic(err)
				}
			}
		case CommPacket:
			transfer = func(from, to int, bytes int64, done func()) {
				if err := net.TransferPackets(dc.hostOf[from], dc.hostOf[to], bytes, done); err != nil {
					panic(err)
				}
			}
		}
	} else if cfg.CommMode != CommNone {
		return nil, fmt.Errorf("core: CommMode %v requires a topology", cfg.CommMode)
	}

	// Scheduler.
	if b, ok := cfg.Placer.(sched.Binder); ok {
		if dc.Net == nil {
			return nil, fmt.Errorf("core: placer %s requires a topology", cfg.Placer.Name())
		}
		b.Bind(dc.Net, dc.hostOf)
	}
	scfg := sched.Config{
		Placer:         cfg.Placer,
		UseGlobalQueue: cfg.UseGlobalQueue,
		Transfer:       transfer,
	}
	if cfg.Faults != nil {
		scfg.Orphans = cfg.Faults.Orphans
	}
	s, err := sched.New(eng, dc.Servers, scfg)
	if err != nil {
		return nil, err
	}
	dc.Sched = s
	s.SetCover(cfg.Cover)
	s.OnJobDone(func(j *job.Job) {
		if j.ArriveAt >= cfg.Warmup {
			dc.latency.Add(j.Sojourn().Seconds())
		}
	})

	// Workload.
	dc.Gen = workload.NewGenerator(eng, master.Split("workload"), cfg.Arrivals,
		cfg.Factory, func(j *job.Job) { s.JobArrived(j) })
	dc.Gen.MaxJobs = cfg.MaxJobs
	// The simulation's job free list: a finished job goes back to the
	// generator, which builds a later arrival in its storage. Subscribers
	// run in order and this one only records the pointer, so every
	// OnJobDone subscriber, before or after it, reads the job intact.
	s.OnJobDone(dc.Gen.Recycle)
	if cfg.Duration > 0 {
		dc.Gen.Until = cfg.Duration
	}

	// Fault injection. The timeline derives from a dedicated rng stream
	// split off the master only when faults are configured, so fault-free
	// runs consume exactly the pre-fault draws.
	if cfg.Faults != nil {
		spec := *cfg.Faults
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		horizon := spec.HorizonSec
		if horizon <= 0 {
			horizon = cfg.Duration.Seconds()
		}
		if horizon <= 0 && !spec.Empty() {
			return nil, fmt.Errorf("core: fault spec needs a horizon (set Spec.HorizonSec or Duration)")
		}
		links, switches := 0, 0
		if dc.Net != nil {
			links = dc.Net.NumLinks()
			switches = len(dc.Net.Switches())
		}
		// Scope-resolution table: derived from the graph when there is
		// one, fixed server blocks otherwise.
		var topo *fault.Topo
		if dc.Graph != nil {
			topo = fault.NewTopo(topology.NewScopeMap(dc.Graph), cfg.Servers, links, switches)
		} else {
			topo = fault.FallbackTopo(cfg.Servers)
		}
		tl, err := spec.TimelineFor(master.Split("faults"), horizon, topo)
		if err != nil {
			return nil, err
		}
		// The cascade stream splits off only when cascades can fire, so
		// cascade-free specs consume exactly the pre-correlation draws.
		var cascade *rng.Source
		if spec.CascadeP > 0 && spec.CascadeDepth > 0 {
			cascade = master.Split("faults-cascade")
		}
		dc.injector = fault.Attach(eng, tl, s, dc.Servers, dc.Net,
			fault.AttachOpts{Topo: topo, Cascade: cascade, Spec: spec, Cover: cfg.Cover})
	}

	// Invariant checking. The farm's incremental aggregates keep the
	// checker's Finalize sums O(1), and the checker's scan budget bounds
	// every deep scan, so checking stays affordable at any farm size.
	if cfg.Check {
		opts := invariant.Options{Stationary: cfg.CheckStationary, Farm: dc.Farm}
		if dc.injector != nil {
			opts.LostJobsLedger = dc.injector.JobsLost
			opts.ScopeCheck = dc.injector.CheckScopes
		}
		dc.checker = invariant.Attach(eng, dc.Gen, s, dc.Servers, dc.Net, opts)
	}
	return dc, nil
}

// HostOf reports the topology node bound to a server (only with a
// topology).
func (dc *DataCenter) HostOf(serverID int) topology.NodeID { return dc.hostOf[serverID] }

// Run executes the simulation and collects results. With Check enabled
// it finalizes the invariant checker; a violated law returns the
// results alongside a non-nil error describing every violation.
func (dc *DataCenter) Run() (*Results, error) {
	dc.Gen.Start()
	if dc.cfg.Duration > 0 {
		dc.Eng.RunUntil(dc.cfg.Duration)
	} else {
		dc.Eng.Run()
	}
	r := dc.Collect()
	if dc.checker != nil {
		dc.checker.Finalize(r.End)
		dc.checker.VerifyTotals(invariant.ReportedTotals{
			End:               r.End,
			JobsGenerated:     r.JobsGenerated,
			JobsCompleted:     r.JobsCompleted,
			JobsLost:          r.JobsLost,
			ServerEnergyJ:     r.ServerEnergyJ,
			CPUEnergyJ:        r.CPUEnergyJ,
			DRAMEnergyJ:       r.DRAMEnergyJ,
			PlatformEnergyJ:   r.PlatformEnergyJ,
			NetworkEnergyJ:    r.NetworkEnergyJ,
			MeanServerPowerW:  r.MeanServerPowerW,
			MeanNetworkPowerW: r.MeanNetworkPowerW,
			Residency:         r.Residency,
		})
		if err := dc.checker.Err(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// Checker exposes the attached invariant checker (nil unless the
// config enabled Check).
func (dc *DataCenter) Checker() *invariant.Checker { return dc.checker }

// Collect snapshots results at the current virtual time. It may be
// called repeatedly (e.g. per sweep point when reusing a data center).
func (dc *DataCenter) Collect() *Results {
	end := dc.Eng.Now()
	r := &Results{
		End:           end,
		JobsGenerated: dc.Gen.Generated(),
		JobsCompleted: dc.Sched.JobsCompleted(),
		JobsLost:      dc.Sched.JobsLost(),
		TasksAborted:  dc.Sched.TasksAborted(),
		Latency:       dc.latency,
		Residency:     make(map[string]float64),
	}
	if !dc.compact {
		// Hyperscale mode drops the per-server breakdown: a million
		// ServerEnergy entries serve no report and dominate the results'
		// footprint. Aggregates below are collected either way.
		r.PerServer = make([]ServerEnergy, len(dc.Servers))
	}
	if dc.injector != nil {
		ledger := dc.injector.Ledger()
		r.Faults = &ledger
	}
	resTotals := make(map[string]float64)
	for i, s := range dc.Servers {
		cpu, dram, plat := s.CPUEnergyTo(end), s.DRAMEnergyTo(end), s.PlatformEnergyTo(end)
		if r.PerServer != nil {
			r.PerServer[i] = ServerEnergy{CPU: cpu, DRAM: dram, Platform: plat}
		}
		r.ServerEnergyJ += cpu + dram + plat
		r.CPUEnergyJ += cpu
		r.DRAMEnergyJ += dram
		r.PlatformEnergyJ += plat
		// Accumulate into resTotals without a per-server map.
		s.Residency().AddFractionsTo(end, resTotals)
		r.ServerWakeups += s.WakeCount()
	}
	for _, state := range stats.SortedStates(resTotals) {
		r.Residency[state] = resTotals[state] / float64(len(dc.Servers))
	}
	if sec := end.Seconds(); sec > 0 {
		r.MeanServerPowerW = r.ServerEnergyJ / sec
	}
	if dc.Net != nil {
		r.NetworkEnergyJ = dc.Net.NetworkEnergyTo(end)
		if sec := end.Seconds(); sec > 0 {
			r.MeanNetworkPowerW = r.NetworkEnergyJ / sec
		}
		r.NetStats = dc.Net.Stats()
		for _, sw := range dc.Net.Switches() {
			r.SwitchWakeups += sw.WakeCount()
		}
	}
	return r
}

// ServerEnergy is one server's per-component energy (Fig. 9's bars).
type ServerEnergy struct {
	CPU, DRAM, Platform float64 // joules
}

// Results aggregates a run's outputs.
type Results struct {
	End           simtime.Time
	JobsGenerated int64
	JobsCompleted int64
	// JobsLost counts jobs retracted by failures (server crash under a
	// drop policy, or arrival with no alive server). TasksAborted counts
	// dispatched task incarnations retracted before finishing.
	JobsLost     int64
	TasksAborted int64
	// Faults snapshots the injector's ledger (nil without fault config).
	Faults *fault.Ledger

	// Latency holds per-job sojourn times in seconds (post-warmup).
	Latency *stats.Tally

	ServerEnergyJ     float64
	CPUEnergyJ        float64
	DRAMEnergyJ       float64
	PlatformEnergyJ   float64
	NetworkEnergyJ    float64
	MeanServerPowerW  float64
	MeanNetworkPowerW float64

	PerServer []ServerEnergy

	// Residency maps state label -> mean fraction across servers
	// (Fig. 8's stacked bars).
	Residency map[string]float64

	ServerWakeups int64
	SwitchWakeups int64

	NetStats network.Stats
}

// String renders a one-line summary. The lost-jobs figure appears only
// when failures actually retracted work, so fault-free summaries render
// exactly as before.
func (r *Results) String() string {
	lost := ""
	if r.JobsLost > 0 {
		lost = fmt.Sprintf(" lost=%d", r.JobsLost)
	}
	return fmt.Sprintf("jobs=%d/%d%s mean=%.4gms p95=%.4gms p99=%.4gms energy=%.4gkJ meanPower=%.4gW",
		r.JobsCompleted, r.JobsGenerated, lost,
		r.Latency.Mean()*1e3, r.Latency.Percentile(95)*1e3, r.Latency.Percentile(99)*1e3,
		r.ServerEnergyJ/1e3, r.MeanServerPowerW)
}
