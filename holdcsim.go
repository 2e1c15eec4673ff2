// Package holdcsim is a holistic, event-driven data center simulator —
// a from-scratch Go implementation of "HolDCSim: A Holistic Simulator
// for Data Centers" (Yao et al., IISWC 2019, arXiv:1909.13548).
//
// HolDCSim jointly models servers and networks: multi-core
// (optionally heterogeneous) servers with hierarchical ACPI power states
// (per-core C-states, package C-states, system sleep states, DVFS),
// switches built from chassis/line cards/ports with Low Power Idle and
// adaptive link rate, the fat-tree / flattened-butterfly / BCube /
// CamCube / star topologies, packet- and flow-level communication,
// multi-task job DAGs, stochastic (Poisson, 2-state MMPP) and
// trace-driven workloads, and pluggable global/local scheduling and
// power-management policies.
//
// # Quick start
//
//	cfg := holdcsim.Config{
//		Seed:         1,
//		Servers:      16,
//		ServerConfig: holdcsim.DefaultServerConfig(holdcsim.XeonE5_2680()),
//		Placer:       holdcsim.LeastLoaded{},
//		Arrivals:     holdcsim.Poisson{Rate: 5000},
//		Factory:      holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
//		MaxJobs:      100000,
//	}
//	dc, err := holdcsim.Build(cfg)
//	if err != nil { ... }
//	res, _ := dc.Run()
//	fmt.Println(res) // latency percentiles, energy, residency, ...
//
// The facade is the part of the internal packages that examples/ and
// the doc tests use, exported through aliases, so every method
// documented there is available on the types below.
package holdcsim

import (
	"holdcsim/internal/core"
	"holdcsim/internal/dist"
	"holdcsim/internal/engine"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
	"holdcsim/internal/trace"
	"holdcsim/internal/workload"
)

// Simulation assembly (internal/core).
type (
	// Config describes one experiment: farm, topology, scheduling,
	// workload, horizon.
	Config = core.Config
	// DataCenter is a built simulation; Run executes it.
	DataCenter = core.DataCenter
	// Results aggregates latency, energy, residency and network stats.
	Results = core.Results
	// CommMode selects flow- or packet-level communication for DAG edges.
	CommMode = core.CommMode
)

// Communication modes (the zero CommMode is server-only: no network).
const (
	CommFlow   = core.CommFlow
	CommPacket = core.CommPacket
)

// Build validates a Config and constructs the data center.
func Build(cfg Config) (*DataCenter, error) { return core.Build(cfg) }

// Time is virtual time in nanoseconds since simulation start
// (internal/simtime).
type Time = simtime.Time

// Common durations.
const (
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// Seconds converts float64 seconds to Time.
func Seconds(s float64) Time { return simtime.FromSeconds(s) }

// Event engine (internal/engine).
type (
	// Engine is the discrete-event core: virtual clock + pooled ladder
	// queue of events.
	Engine = engine.Engine
	// Timer is a restartable one-shot timer on the virtual clock.
	Timer = engine.Timer
)

// NewEngine returns an empty engine at the simulation epoch.
func NewEngine() *Engine { return engine.New() }

// NewTimer returns an unarmed timer invoking fn on expiry.
func NewTimer(eng *Engine, fn func()) *Timer { return engine.NewTimer(eng, fn) }

// RNG is a deterministic random stream, splittable by label
// (internal/rng).
type RNG = rng.Source

// NewRNG returns a stream seeded from seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// Servers and power (internal/server, internal/power).
type (
	// Server is one machine: cores, local queues, power controller.
	Server = server.Server
	// ServerConfig parameterizes one server instance.
	ServerConfig = server.Config
	// QueueMode selects unified vs per-core local queues.
	QueueMode = server.QueueMode
	// DVFSGovernor is an ondemand-style runtime frequency controller.
	DVFSGovernor = server.DVFSGovernor
	// ServerProfile carries per-state power figures for a server model.
	ServerProfile = power.ServerProfile
	// SwitchProfile carries per-state power figures for a switch model.
	SwitchProfile = power.SwitchProfile
)

// Local queue modes.
const (
	QueueUnified = server.QueueUnified
	QueuePerCore = server.QueuePerCore
)

// Residency labels used by Results.Residency (the paper's Fig. 8 legend).
const (
	StateActive   = server.StateActive
	StateIdle     = server.StateIdle
	StatePkgC6    = server.StatePkgC6
	StateSysSleep = server.StateSysSleep
)

// NewServer constructs a standalone server bound to an engine (the
// Config/Build path does this for whole farms).
func NewServer(id int, eng *Engine, cfg ServerConfig) (*Server, error) {
	return server.New(id, eng, cfg)
}

// NewDVFSGovernor attaches an ondemand-style frequency governor to a
// server; call Start on it to begin.
func NewDVFSGovernor(srv *Server) *DVFSGovernor { return server.NewDVFSGovernor(srv) }

// DefaultServerConfig returns the common idle governor with package C6
// enabled and no delay timer.
func DefaultServerConfig(profile *ServerProfile) ServerConfig {
	return server.DefaultConfig(profile)
}

// XeonE5_2680 is the 10-core Xeon profile of the paper's validation.
func XeonE5_2680() *ServerProfile { return power.XeonE5_2680() }

// FourCoreServer is the generic 4-core farm profile of Secs. IV-A/B.
func FourCoreServer() *ServerProfile { return power.FourCoreServer() }

// Cisco2960_24 is the validated 24-port switch profile (Sec. V-B).
func Cisco2960_24() *SwitchProfile { return power.Cisco2960_24() }

// DataCenter10G is a generic 10 GbE switch profile with the given ports.
func DataCenter10G(ports int) *SwitchProfile { return power.DataCenter10G(ports) }

// Topologies (internal/topology).
type (
	// FatTree is the k-ary fat-tree of Fig. 10.
	FatTree = topology.FatTree
	// Star is N hosts on one switch (the Sec. V-B validation shape).
	Star = topology.Star
)

// Network (internal/network).
type (
	// NetworkConfig parameterizes the network layer.
	NetworkConfig = network.Config
)

// DefaultNetworkConfig returns sensible network defaults for a profile.
func DefaultNetworkConfig(profile *SwitchProfile) NetworkConfig {
	return network.DefaultConfig(profile)
}

// Scheduling (internal/sched).
type (
	// Placer chooses a server for each ready task: the whole policy.
	Placer = sched.Placer
	// RoundRobin cycles placements.
	RoundRobin = sched.RoundRobin
	// LeastLoaded balances by pending tasks.
	LeastLoaded = sched.LeastLoaded
	// PackFirst consolidates load onto as few servers as possible.
	PackFirst = sched.PackFirst
	// NetworkAware is the Server-Network-Aware policy of Sec. IV-D.
	NetworkAware = sched.NetworkAware
	// Provisioner is the threshold provisioning controller of Sec. IV-A.
	Provisioner = sched.Provisioner
	// AdaptivePool is the WASP-style dual-pool framework of Sec. IV-C.
	AdaptivePool = sched.AdaptivePool
)

// NewProvisioner returns the Sec. IV-A threshold controller.
func NewProvisioner(minLoad, maxLoad float64) *Provisioner {
	return sched.NewProvisioner(minLoad, maxLoad)
}

// NewAdaptivePool returns the Sec. IV-C workload-adaptive framework.
func NewAdaptivePool(tWakeup, tSleep float64, tau Time) *AdaptivePool {
	return sched.NewAdaptivePool(tWakeup, tSleep, tau)
}

// Workloads (internal/workload, internal/dist, internal/trace).
type (
	// ArrivalProcess produces inter-arrival gaps.
	ArrivalProcess = workload.ArrivalProcess
	// Poisson is a homogeneous Poisson arrival process.
	Poisson = workload.Poisson
	// MMPP is the 2-state Markov-Modulated Poisson Process.
	MMPP = workload.MMPP
	// TraceReplay replays recorded arrival timestamps.
	TraceReplay = workload.TraceReplay
	// SingleTask builds one-task jobs.
	SingleTask = workload.SingleTask
	// TwoTier builds app->db request DAGs.
	TwoTier = workload.TwoTier
	// RandomDAG builds layered random DAGs (the Sec. IV-D traffic).
	RandomDAG = workload.RandomDAG
	// Sampler draws service times or sizes.
	Sampler = dist.Sampler
	// Deterministic is the Sampler that always returns Value.
	Deterministic = dist.Deterministic
	// MMPP2 is the underlying modulated process.
	MMPP2 = dist.MMPP2
	// Trace is a sequence of arrival timestamps.
	Trace = trace.Trace
)

// NewMMPP2 validates and returns a 2-state MMPP.
func NewMMPP2(lambdaH, lambdaL, meanBurst, meanQuiet float64) (*MMPP2, error) {
	return dist.NewMMPP2(lambdaH, lambdaL, meanBurst, meanQuiet)
}

// NewTraceReplay wraps a trace for replay from its beginning.
func NewTraceReplay(tr *Trace) *TraceReplay { return workload.NewTraceReplay(tr) }

// WebSearchService is the 5 ms latency-critical profile (Sec. IV-B).
func WebSearchService() Sampler { return workload.WebSearchService() }

// WebServingService is the 120 ms profile (Sec. IV-B).
func WebServingService() Sampler { return workload.WebServingService() }

// WikipediaService is the 3-10 ms uniform profile (Sec. IV-A).
func WikipediaService() Sampler { return workload.WikipediaService() }

// UtilizationRate converts a target utilization into a Poisson rate.
func UtilizationRate(rho float64, nServers, nCores int, meanServiceSec float64) float64 {
	return workload.UtilizationRate(rho, nServers, nCores, meanServiceSec)
}

// SyntheticWikipedia generates a Wikipedia-like diurnal arrival trace
// (stand-in for the paper's trace [59]; see DESIGN.md).
func SyntheticWikipedia(durationSec, meanRate float64, r *RNG) *Trace {
	return trace.SyntheticWikipedia(trace.DefaultWikipediaConfig(durationSec, meanRate), r)
}

// SyntheticNLANR generates an NLANR-like bursty HTTP arrival trace
// (stand-in for the paper's trace [2]; see DESIGN.md).
func SyntheticNLANR(durationSec float64, r *RNG) *Trace {
	return trace.SyntheticNLANR(trace.DefaultNLANRConfig(durationSec), r)
}
