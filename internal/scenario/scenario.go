// Package scenario turns the simulator's full registry of builders —
// every topology, arrival process, job shape, placement policy, power
// profile and core mix — into declarative, machine-generatable
// experiment descriptors.
//
// HolDCSim's claim is *holistic* coverage (servers × networks ×
// policies), but the paper's evaluation exercises only the ~9 fixed
// configurations behind its figures. A Scenario is plain data: it can
// be cross-producted (Axes.Expand), drawn at random (Random), fuzzed
// (FuzzScenario in this package's tests), and every run carries the
// runtime invariant checker (internal/invariant), so the scenario space
// is explored with conservation laws verified rather than golden files
// spot-checked.
package scenario

import (
	"fmt"
	"math"
	"os"

	"holdcsim/internal/core"
	"holdcsim/internal/dist"
	"holdcsim/internal/enum"
	"holdcsim/internal/fault"
	"holdcsim/internal/invariant"
	"holdcsim/internal/modelcov"
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

// ---------------------------------------------------------------------
// Topology axis
// ---------------------------------------------------------------------

// TopoKind selects a topology family from the registry.
type TopoKind int

// Topology kinds. TopoNone runs server-only (no network layer).
const (
	TopoNone TopoKind = iota
	TopoStar
	TopoFatTree
	TopoBCube
	TopoCamCube
	TopoFlatButterfly
)

// TopologySpec declares one topology instance. A, B, C are the
// kind-specific shape parameters:
//
//	Star:           A = hosts
//	FatTree:        A = k (even)
//	BCube:          A = n, B = k
//	CamCube:        A×B×C torus dimensions
//	FlatButterfly:  A = rows, B = cols, C = concentration
type TopologySpec struct {
	Kind    TopoKind `json:"kind"`
	A       int      `json:"a,omitempty"`
	B       int      `json:"b,omitempty"`
	C       int      `json:"c,omitempty"`
	RateBps float64  `json:"rateBps,omitempty"` // 0 = family default
}

// Builder returns the topology builder, or nil for TopoNone.
func (t TopologySpec) Builder() topology.Topology {
	switch t.Kind {
	case TopoStar:
		return topology.Star{Hosts: t.A, RateBps: t.RateBps}
	case TopoFatTree:
		return topology.FatTree{K: t.A, RateBps: t.RateBps}
	case TopoBCube:
		return topology.BCube{N: t.A, K: t.B, RateBps: t.RateBps}
	case TopoCamCube:
		return topology.CamCube{X: t.A, Y: t.B, Z: t.C, RateBps: t.RateBps}
	case TopoFlatButterfly:
		return topology.FlattenedButterfly{Rows: t.A, Cols: t.B, Concentration: t.C, RateBps: t.RateBps}
	}
	return nil
}

// Hosts reports the host count a spec whose shape passes the builder's
// Check will build (0 for TopoNone).
func (t TopologySpec) Hosts() int {
	if b := t.Builder(); b != nil {
		return b.NumHosts()
	}
	return 0
}

// MaxSwitchDegree reports the largest port count any switch needs (0
// for switchless topologies), sizing the switch power profile.
func (t TopologySpec) MaxSwitchDegree() int {
	switch t.Kind {
	case TopoStar:
		return t.A
	case TopoFatTree:
		return t.A
	case TopoBCube:
		return t.A
	case TopoFlatButterfly:
		return t.C + (t.A - 1) + (t.B - 1)
	}
	return 0
}

// String implements fmt.Stringer. Injective: shape parameters the kind
// ignores are appended, when nonzero, as a parenthesized tail, and a
// non-default link rate is always included.
func (t TopologySpec) String() string {
	var s string
	var deadShape bool
	switch t.Kind {
	case TopoStar:
		s = fmt.Sprintf("star%d", t.A)
		deadShape = t.B != 0 || t.C != 0
	case TopoFatTree:
		s = fmt.Sprintf("fattree%d", t.A)
		deadShape = t.B != 0 || t.C != 0
	case TopoBCube:
		s = fmt.Sprintf("bcube%d-%d", t.A, t.B)
		deadShape = t.C != 0
	case TopoCamCube:
		s = fmt.Sprintf("camcube%dx%dx%d", t.A, t.B, t.C)
	case TopoFlatButterfly:
		s = fmt.Sprintf("flatbfly%dx%dx%d", t.A, t.B, t.C)
	case TopoNone:
		s = "none"
		deadShape = t.A != 0 || t.B != 0 || t.C != 0
	default:
		return fmt.Sprintf("topo(%d)%dx%dx%d@%g", int(t.Kind), t.A, t.B, t.C, t.RateBps)
	}
	if t.RateBps != 0 {
		s += fmt.Sprintf("@%g", t.RateBps)
	}
	if deadShape {
		s += fmt.Sprintf("(%d,%d,%d)", t.A, t.B, t.C)
	}
	return s
}

// ---------------------------------------------------------------------
// Arrival axis
// ---------------------------------------------------------------------

// ArrivalKind selects an arrival process from the registry.
type ArrivalKind int

// Arrival kinds. ArrTraceFile replays an externally recorded trace
// file; Random never draws it (a random draw cannot invent a file), so
// it enters the registry only through imported scenarios.
const (
	ArrPoisson ArrivalKind = iota
	ArrMMPP
	ArrTraceWiki
	ArrTraceNLANR
	ArrTraceFile
)

// ArrivalSpec declares the workload's arrival process. Rho is the
// target utilization; the concrete rate is derived from the farm size
// and the factory's mean service demand, so the same spec composes
// sanely with any farm.
type ArrivalSpec struct {
	Kind ArrivalKind `json:"kind"`
	// Rho is the target system utilization in (0, 1).
	Rho float64 `json:"rho"`
	// BurstRatio is the MMPP λH/λL ratio (>= 1); ignored elsewhere.
	BurstRatio float64 `json:"burstRatio,omitempty"`
	// TraceSec is the synthesized trace length for the synthetic trace
	// kinds.
	TraceSec float64 `json:"traceSec,omitempty"`
	// TraceFile is the recorded arrival trace (one timestamp per line,
	// seconds; trace.Read format) replayed for ArrTraceFile. The trace
	// is rescaled so its mean rate hits the utilization target Rho, the
	// same composition rule the synthetic traces follow.
	TraceFile string `json:"traceFile,omitempty"`
	// ClipFromSec/ClipToSec select a half-open window [from, to) of the
	// recorded trace to replay (ArrTraceFile only). Clipping happens
	// before rate-rescaling, so Rho targets the window's own mean rate,
	// not the full file's. ClipToSec == 0 with ClipFromSec set means
	// "to the end of the trace".
	ClipFromSec float64 `json:"clipFromSec,omitempty"`
	ClipToSec   float64 `json:"clipToSec,omitempty"`
}

// String implements fmt.Stringer. The rendering is injective: every
// field the kind consumes is formatted with round-trip precision, and
// fields the kind ignores, when nonzero, are appended in a parenthesized
// tail so two distinct specs never share a label (runner rep-seeding
// splits on scenario labels).
func (a ArrivalSpec) String() string {
	var s string
	switch a.Kind {
	case ArrPoisson:
		s = fmt.Sprintf("poisson%g", a.Rho)
	case ArrMMPP:
		s = fmt.Sprintf("mmpp%g-r%g", a.Rho, a.BurstRatio)
	case ArrTraceWiki:
		s = fmt.Sprintf("wiki%g-t%g", a.Rho, a.TraceSec)
	case ArrTraceNLANR:
		s = fmt.Sprintf("nlanr%g-t%g", a.Rho, a.TraceSec)
	case ArrTraceFile:
		s = fmt.Sprintf("file%g-%q", a.Rho, a.TraceFile)
		if a.ClipFromSec != 0 || a.ClipToSec != 0 {
			s += fmt.Sprintf("-c%g:%g", a.ClipFromSec, a.ClipToSec)
		}
	default:
		s = fmt.Sprintf("arr(%d)%g-r%g-t%g-%q", int(a.Kind), a.Rho, a.BurstRatio, a.TraceSec, a.TraceFile)
		return s
	}
	deadBurst := a.Kind != ArrMMPP && a.BurstRatio != 0
	deadTrace := a.Kind != ArrTraceWiki && a.Kind != ArrTraceNLANR && a.TraceSec != 0
	deadFile := a.Kind != ArrTraceFile && a.TraceFile != ""
	if deadBurst || deadTrace || deadFile {
		s += fmt.Sprintf("(r%g-t%g-%q)", a.BurstRatio, a.TraceSec, a.TraceFile)
	}
	if a.Kind != ArrTraceFile && (a.ClipFromSec != 0 || a.ClipToSec != 0) {
		s += fmt.Sprintf("(c%g:%g)", a.ClipFromSec, a.ClipToSec)
	}
	return s
}

// traceLen is the synthetic trace length: TraceSec, or 10 s if unset.
func (a ArrivalSpec) traceLen() float64 {
	if a.TraceSec <= 0 {
		return 10
	}
	return a.TraceSec
}

// The synthetic NLANR trace's ON-period and background rates (1/s).
const nlanrOnRate, nlanrBackground = 40, 2

// synthArrivals is the expected arrival count of a synthetic trace at
// mean rate rate, 0 for the other kinds. The Wikipedia synthesizer
// walks one-second buckets, so it counts at least one a second.
func (a ArrivalSpec) synthArrivals(rate float64) float64 {
	switch a.Kind {
	case ArrTraceWiki:
		return a.traceLen() * math.Max(rate, 1)
	case ArrTraceNLANR:
		return a.traceLen() * trace.NLANRMeanRate(nlanrOnRate, nlanrBackground)
	}
	return 0
}

// process constructs the arrival process for a farm with the given
// aggregate service capacity. r must be a stream derived only from the
// scenario seed (the process is part of the run's pure function).
func (a ArrivalSpec) process(rate float64, r *rng.Source) (workload.ArrivalProcess, error) {
	switch a.Kind {
	case ArrPoisson:
		return workload.Poisson{Rate: rate}, nil
	case ArrMMPP:
		lambdaH, lambdaL := a.mmppRates(rate)
		proc, err := dist.NewMMPP2(lambdaH, lambdaL, mmppBurstSec, mmppQuietSec)
		if err != nil {
			return nil, err
		}
		return workload.MMPP{Proc: proc}, nil
	case ArrTraceWiki:
		tr := trace.SyntheticWikipedia(a.traceLen(), rate, r.Split("trace/wiki"))
		return workload.NewTraceReplay(tr), nil
	case ArrTraceNLANR:
		tr := trace.SyntheticNLANR(a.traceLen(), nlanrOnRate, nlanrBackground, r.Split("trace/nlanr"))
		// NLANR synthesis fixes its own burst rates; rescale to the
		// requested mean rate so utilization stays in range.
		rep, err := replayScaled(tr, rate)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", a, err)
		}
		return rep, nil
	case ArrTraceFile:
		f, err := os.Open(a.TraceFile)
		if err != nil {
			return nil, fmt.Errorf("scenario: arrival trace: %w", err)
		}
		defer f.Close()
		// The recorded trace rides the same capped, validated loader as
		// every other external trace (finite, nonnegative, nondecreasing
		// timestamps; arrival count bounded) and the same rate-rescaling
		// rule as the synthetic NLANR path, so Rho composes with any farm.
		tr, err := trace.Read(f)
		if err != nil {
			return nil, fmt.Errorf("scenario: arrival trace %s: %w", a.TraceFile, err)
		}
		if tr.Len() == 0 {
			return nil, fmt.Errorf("scenario: arrival trace %s has no arrivals", a.TraceFile)
		}
		if a.ClipFromSec != 0 || a.ClipToSec != 0 {
			to := a.ClipToSec
			if to == 0 {
				// Open-ended window: Clip's upper bound is exclusive, so
				// nudge past the last timestamp to keep it.
				to = tr.Duration() + 1
			}
			tr, err = tr.Clip(a.ClipFromSec, to)
			if err != nil {
				return nil, fmt.Errorf("scenario: arrival trace %s: %w", a.TraceFile, err)
			}
			if tr.Len() == 0 {
				return nil, fmt.Errorf("scenario: arrival trace %s clip window [%g, %g) is empty",
					a.TraceFile, a.ClipFromSec, to)
			}
		}
		rep, err := replayScaled(tr, rate)
		if err != nil {
			return nil, fmt.Errorf("scenario: arrival trace %s: %w", a.TraceFile, err)
		}
		return rep, nil
	}
	return nil, fmt.Errorf("scenario: unknown arrival kind %d", a.Kind)
}

// The MMPP arrival's modulating chain: bursts of 0.5 s and quiet
// periods of 1 s on average, a duty cycle of 1/3.
const mmppBurstSec, mmppQuietSec = 0.5, 1.0

// maxMMPPCyclesPerGap bounds the modulating cycles a quiet-state gap
// spans on average. dist.MMPP2.Next flips the state through every cycle
// a gap spans before it returns one arrival, so a quiet rate of far
// less than one arrival a cycle spins in one call: at ρ 1e-13 on eight
// servers, about 2e9 flips an arrival.
const maxMMPPCyclesPerGap = 1e6

// mmppRates splits the mean rate into the MMPP's burst and quiet rates,
// preserving the mean over the duty cycle: rate = λH/3 + 2λL/3 with
// λH = BurstRatio·λL.
func (a ArrivalSpec) mmppRates(rate float64) (lambdaH, lambdaL float64) {
	lambdaL = 3 * rate / (a.BurstRatio + 2)
	return a.BurstRatio * lambdaL, lambdaL
}

// replayScaled rescales a trace whose own mean rate is fixed (recorded
// files, NLANR synthesis) so it hits the utilization-derived target
// rate, then wraps it for replay. One rule for every external trace:
// changing the Rho composition here changes it everywhere.
func replayScaled(tr *trace.Trace, rate float64) (*workload.TraceReplay, error) {
	if mr := tr.MeanRate(); mr > 0 {
		f, err := rescaleFactor(mr, tr.Duration(), rate)
		if err != nil {
			return nil, err
		}
		tr.Scale(f)
	}
	return workload.NewTraceReplay(tr), nil
}

// rescaleFactor is the factor that stretches a trace of mean rate mr
// spanning span seconds to the target rate. A target so far below the
// trace's own rate that the factor, or the stretched span, is past
// float64's range is an error.
func rescaleFactor(mr, span, rate float64) (float64, error) {
	f := mr / rate
	if math.IsInf(f, 0) || math.IsInf(f*span, 0) {
		return 0, fmt.Errorf("rescaling a trace of %g arrivals/s to %g arrivals/s overflows", mr, rate)
	}
	return f, nil
}

// ---------------------------------------------------------------------
// Factory axis
// ---------------------------------------------------------------------

// FactoryKind selects a job shape from the registry.
type FactoryKind int

// Factory kinds.
const (
	FacSingle FactoryKind = iota
	FacTwoTier
	FacScatterGather
	FacRandomDAG
)

// ServiceKind selects a service-time profile.
type ServiceKind int

// Service profiles (paper Sec. IV).
const (
	SvcWebSearch  ServiceKind = iota // exp, 5 ms mean
	SvcWebServing                    // exp, 120 ms mean
	SvcWikipedia                     // uniform 3–10 ms
)

// String implements fmt.Stringer.
func (s ServiceKind) String() string { return enum.String(s, serviceKindNames, "svc") }

// serviceSamplers is indexed by ServiceKind. The samplers are immutable
// values, built once, so Validate reads a mean without allocating.
var serviceSamplers = []dist.Sampler{
	SvcWebSearch:  workload.WebSearchService(),
	SvcWebServing: workload.WebServingService(),
	SvcWikipedia:  workload.WikipediaService(),
}

func (s ServiceKind) sampler() dist.Sampler { return serviceSamplers[s] }

// FactorySpec declares the job DAG shape.
type FactorySpec struct {
	Kind    FactoryKind `json:"kind"`
	Service ServiceKind `json:"service"`
	// Width is the scatter-gather fan-out / random-DAG max layer width.
	Width int `json:"width,omitempty"`
	// Layers is the random-DAG depth.
	Layers int `json:"layers,omitempty"`
	// EdgeBytes is the data carried per DAG edge.
	EdgeBytes int64 `json:"edgeBytes,omitempty"`
}

// String implements fmt.Stringer. Injective: the service profile and
// edge payload — both of which change the simulation — are part of the
// label (they used to be dropped, so distinct imported scenarios could
// collide on one run label), and fields the kind ignores are appended
// when nonzero.
func (f FactorySpec) String() string {
	var s string
	var deadW, deadL, deadE bool
	switch f.Kind {
	case FacSingle:
		s = fmt.Sprintf("single-%s", f.Service)
		deadW, deadL, deadE = true, true, true
	case FacTwoTier:
		s = fmt.Sprintf("twotier-%s-e%d", f.Service, f.EdgeBytes)
		deadW, deadL = true, true
	case FacScatterGather:
		s = fmt.Sprintf("scatter%d-%s-e%d", f.Width, f.Service, f.EdgeBytes)
		deadL = true
	case FacRandomDAG:
		s = fmt.Sprintf("dag%dx%d-%s-e%d", f.Layers, f.Width, f.Service, f.EdgeBytes)
	default:
		return fmt.Sprintf("fac(%d)-%s-w%d-l%d-e%d", int(f.Kind), f.Service, f.Width, f.Layers, f.EdgeBytes)
	}
	if (deadW && f.Width != 0) || (deadL && f.Layers != 0) || (deadE && f.EdgeBytes != 0) {
		s += fmt.Sprintf("(w%d-l%d-e%d)", f.Width, f.Layers, f.EdgeBytes)
	}
	return s
}

// factory constructs the workload factory.
func (f FactorySpec) factory() (workload.JobFactory, error) {
	svc := f.Service.sampler()
	switch f.Kind {
	case FacSingle:
		return workload.SingleTask{Service: svc}, nil
	case FacTwoTier:
		return workload.TwoTier{AppService: svc, DBService: svc, Bytes: f.EdgeBytes}, nil
	case FacScatterGather:
		return workload.ScatterGather{
			Width: f.Width, RootSize: svc, WorkerSize: svc, AggSize: svc,
			Bytes: f.EdgeBytes,
		}, nil
	case FacRandomDAG:
		mean := simtime.FromSeconds(svc.Mean())
		return workload.RandomDAG{
			Layers: f.Layers, MaxWidth: f.Width, MaxDeps: 2,
			MinSize: mean / 2, MaxSize: mean * 2, EdgeBytes: f.EdgeBytes,
		}, nil
	}
	return nil, fmt.Errorf("scenario: unknown factory kind %d", f.Kind)
}

// maxTasksPerJob bounds the tasks one job of a scatter or DAG factory
// may have: every job allocates that many task records.
const maxTasksPerJob = 1 << 16

// validate checks the shape the factory kind reads: a non-negative edge
// payload, at least one task wide and deep, at most maxTasksPerJob tasks
// (the comparison divides, so no product overflows).
func (f FactorySpec) validate() error {
	if f.EdgeBytes < 0 {
		return fmt.Errorf("scenario: negative edge payload %d bytes", f.EdgeBytes)
	}
	switch f.Kind {
	case FacScatterGather:
		if f.Width < 1 || f.Width > maxTasksPerJob-2 {
			return fmt.Errorf("scenario: scatter-gather width %d outside [1, %d]", f.Width, maxTasksPerJob-2)
		}
	case FacRandomDAG:
		if f.Width < 1 || f.Layers < 1 || f.Width > maxTasksPerJob/f.Layers {
			return fmt.Errorf("scenario: random DAG shape %dx%d outside 1x1 to the bound of %d tasks a job",
				f.Layers, f.Width, maxTasksPerJob)
		}
	}
	return nil
}

// meanTasksPerJob estimates E[tasks] for utilization-rate derivation.
func (f FactorySpec) meanTasksPerJob() float64 {
	switch f.Kind {
	case FacTwoTier:
		return 2
	case FacScatterGather:
		return float64(f.Width) + 2
	case FacRandomDAG:
		return float64(f.Layers) * (1 + float64(f.Width)) / 2
	}
	return 1
}

// ---------------------------------------------------------------------
// Placer axis
// ---------------------------------------------------------------------

// PlacerKind selects a placement policy from the registry.
type PlacerKind int

// Placer kinds.
const (
	PlLeastLoaded PlacerKind = iota
	PlRoundRobin
	PlPackFirst
	PlRandom
	PlNetworkAware
	PlAdaptivePool
	PlProvisioner
	PlDualTimer
)

// PlacerSpec declares the placement/power-management policy.
type PlacerSpec struct {
	Kind PlacerKind `json:"kind"`
	// TauSec parameterizes the pool policies' delay timers.
	TauSec float64 `json:"tauSec,omitempty"`
}

// String implements fmt.Stringer. Injective: TauSec is included for the
// policies that consume it, and appended parenthesized when set on one
// that does not.
func (p PlacerSpec) String() string {
	name, ok := enum.Name(p.Kind, placerKindNames)
	if !ok {
		return fmt.Sprintf("placer(%d)-t%g", int(p.Kind), p.TauSec)
	}
	if p.TauSec == 0 {
		return name
	}
	if p.Kind == PlAdaptivePool || p.Kind == PlDualTimer {
		return fmt.Sprintf("%s-t%g", name, p.TauSec)
	}
	return fmt.Sprintf("%s(t%g)", name, p.TauSec)
}

// apply wires the policy into the config. r must derive only from the
// scenario seed.
func (p PlacerSpec) apply(cfg *core.Config, servers int, r *rng.Source) error {
	tau := simtime.FromSeconds(p.TauSec)
	if tau <= 0 {
		tau = 200 * simtime.Millisecond
	}
	switch p.Kind {
	case PlLeastLoaded:
		cfg.Placer = sched.LeastLoaded{}
	case PlRoundRobin:
		cfg.Placer = sched.RoundRobin{}
	case PlPackFirst:
		cfg.Placer = sched.PackFirst{}
	case PlRandom:
		src := r.Split("placer/random")
		cfg.Placer = sched.Random{Next: src.IntN}
	case PlNetworkAware:
		cfg.Placer = &sched.NetworkAware{}
	case PlAdaptivePool:
		cfg.Placer = sched.NewAdaptivePool(3, 1, tau)
	case PlProvisioner:
		cfg.Placer = sched.NewProvisioner(0.5, 3)
	case PlDualTimer:
		high := servers / 2
		if high < 1 {
			high = 1
		}
		cfg.Placer = sched.NewDualTimer(high, tau, tau*4)
	default:
		return fmt.Errorf("scenario: unknown placer kind %d", p.Kind)
	}
	return nil
}

// ---------------------------------------------------------------------
// Server axis
// ---------------------------------------------------------------------

// ProfileKind selects a server power profile.
type ProfileKind int

// Server profiles.
const (
	ProfFourCore ProfileKind = iota
	ProfXeon10
	ProfDualSocket
)

// profiles is indexed by ProfileKind.
var profiles = []func() *power.ServerProfile{
	ProfFourCore:   power.FourCoreServer,
	ProfXeon10:     power.XeonE5_2680,
	ProfDualSocket: power.DualSocketXeon,
}

func (p ProfileKind) profile() *power.ServerProfile { return profiles[p]() }

// profileCores is each profile's core count, read once, so Validate
// can size a synthetic trace without building a profile.
var profileCores = func() []int {
	c := make([]int, len(profileKindNames))
	for k := range c {
		c[k] = ProfileKind(k).profile().Cores
	}
	return c
}()

// String implements fmt.Stringer.
func (p ProfileKind) String() string { return enum.String(p, profileKindNames, "profile") }

// ---------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------

// Scenario is one declarative simulation configuration: plain data,
// expandable by Axes, drawable by Random, mutable by fuzzers, and
// serializable through Encode/Decode (codec.go).
type Scenario struct {
	Seed uint64 `json:"seed"`

	Topology TopologySpec  `json:"topology"`
	Comm     core.CommMode `json:"comm"`

	// NetModel selects the packet-transfer simulation granularity
	// (packet-mode comm only): exact per-packet store-and-forward events,
	// or the fluid flow-level approximation. The zero value is the packet
	// model, so existing scenario files and labels are unchanged.
	NetModel network.NetModel `json:"netModel,omitempty"`

	Servers       int              `json:"servers"`
	Profile       ProfileKind      `json:"profile"`
	Queue         server.QueueMode `json:"queue"`
	DelayTimerSec float64          `json:"delayTimerSec"` // < 0 disables the server delay timer
	Heterogeneous bool             `json:"heterogeneous,omitempty"`
	DVFS          bool             `json:"dvfs,omitempty"`

	Placer      PlacerSpec `json:"placer"`
	GlobalQueue bool       `json:"globalQueue,omitempty"`

	Arrival ArrivalSpec `json:"arrival"`
	Factory FactorySpec `json:"factory"`

	// Horizon: at least one must be set (or a trace arrival bounds the
	// run by itself).
	MaxJobs     int64   `json:"maxJobs,omitempty"`
	DurationSec float64 `json:"durationSec,omitempty"`

	// SwitchSleepSec < 0 disables line-card sleep.
	SwitchSleepSec float64 `json:"switchSleepSec"`

	// Faults is the failure axis: server crash/recover, link flap, and
	// switch death drawn deterministically from the scenario seed. The
	// zero value is fault-free (the injector is not attached at all).
	Faults fault.Spec `json:"faults"`

	// CheckStationary enables the statistical Little's-law check.
	CheckStationary bool `json:"checkStationary,omitempty"`
}

// String composes the scenario's canonical label: every field renders
// with round-trip precision, so the mapping from scenario values to
// labels is injective — two distinct Validate-passing scenarios never
// share a label. The runner derives replication seeds by splitting on
// the label, so a label collision between distinct scenarios would
// silently correlate their replications; TestScenarioLabelInjective
// guards the property.
//
// Layout: seed/topology/comm/farm/queue+timer/placer/arrival/factory/
// horizon/switch-sleep, then optional flag segments (het, gq, dvfs,
// stat) and the fault spec when present.
func (s Scenario) String() string {
	name := fmt.Sprintf("s%d/%s/%s/n%d-%s/%s-dt%g/%s/%s/%s/j%d-d%g/ss%g",
		s.Seed, s.Topology, s.Comm, s.Servers, s.Profile, s.Queue, s.DelayTimerSec,
		s.Placer, s.Arrival, s.Factory, s.MaxJobs, s.DurationSec, s.SwitchSleepSec)
	if s.NetModel == network.ModelFluid {
		name += "/fluid"
	}
	if s.Heterogeneous {
		name += "/het"
	}
	if s.GlobalQueue {
		name += "/gq"
	}
	if s.DVFS {
		name += "/dvfs"
	}
	if s.CheckStationary {
		name += "/stat"
	}
	if !s.Faults.Zero() {
		name += "/" + s.Faults.String()
	}
	return name
}

// Name is the scenario's stable run identifier — an alias of String,
// kept for call sites that read better as Name().
func (s Scenario) Name() string { return s.String() }

// badFloatField rejects the float values Validate's range checks cannot
// judge. NaN slips through ordinary comparisons (every comparison is
// false), so scenarios decoded or assembled from external input are
// checked for finiteness explicitly. A field the run turns into a clock
// time must also have a nanosecond count that fits the clock, or
// simtime.FromSeconds wraps it negative; the trace fields stay float
// seconds, bounded by the synthesis cap and the trace itself.
func (s Scenario) badFloatField() error {
	fields := []struct {
		name  string
		v     float64
		clock bool
	}{
		{"topology.rateBps", s.Topology.RateBps, false},
		{"delayTimerSec", s.DelayTimerSec, true},
		{"placer.tauSec", s.Placer.TauSec, true},
		{"arrival.rho", s.Arrival.Rho, false},
		{"arrival.burstRatio", s.Arrival.BurstRatio, false},
		{"arrival.traceSec", s.Arrival.TraceSec, false},
		{"arrival.clipFromSec", s.Arrival.ClipFromSec, false},
		{"arrival.clipToSec", s.Arrival.ClipToSec, false},
		{"durationSec", s.DurationSec, true},
		{"switchSleepSec", s.SwitchSleepSec, true},
	}
	for _, f := range fields {
		switch {
		case math.IsNaN(f.v) || math.IsInf(f.v, 0):
			return fmt.Errorf("scenario: non-finite %s %g", f.name, f.v)
		case f.clock && math.Abs(f.v) >= simtime.Forever.Seconds():
			return fmt.Errorf("scenario: %s %g s is beyond the clock's range", f.name, f.v)
		}
	}
	return nil
}

// Validate reports whether the scenario composes a legal configuration.
func (s Scenario) Validate() error {
	if err := s.badFloatField(); err != nil {
		return err
	}
	// Every enum field names an entry of its table: a value outside it
	// has no file form and would run as some default under a label of
	// its own.
	for _, e := range [...]struct {
		what string
		v    int
		ok   bool
	}{
		{"topology kind", int(s.Topology.Kind), enum.Valid(s.Topology.Kind, topoKindNames)},
		{"comm mode", int(s.Comm), s.Comm.Valid()},
		{"net model", int(s.NetModel), s.NetModel.Valid()},
		{"server profile", int(s.Profile), enum.Valid(s.Profile, profileKindNames)},
		{"queue mode", int(s.Queue), s.Queue.Valid()},
		{"placer kind", int(s.Placer.Kind), enum.Valid(s.Placer.Kind, placerKindNames)},
		{"arrival kind", int(s.Arrival.Kind), enum.Valid(s.Arrival.Kind, arrivalKindNames)},
		{"factory kind", int(s.Factory.Kind), enum.Valid(s.Factory.Kind, factoryKindNames)},
		{"service kind", int(s.Factory.Service), enum.Valid(s.Factory.Service, serviceKindNames)},
		{"orphan policy", int(s.Faults.Orphans), s.Faults.Orphans.Valid()},
	} {
		if !e.ok {
			return fmt.Errorf("scenario: unknown %s %d", e.what, e.v)
		}
	}
	if s.Servers < 1 {
		return fmt.Errorf("scenario: %d servers", s.Servers)
	}
	if s.Servers > topology.MaxNodes { // a server-only farm never meets a topology's Check
		return fmt.Errorf("scenario: %d servers exceed the bound of %d", s.Servers, topology.MaxNodes)
	}
	if s.Topology.RateBps < 0 { // the builders read any rate <= 0 as the family default
		return fmt.Errorf("scenario: negative link rate %g b/s", s.Topology.RateBps)
	}
	if s.Placer.TauSec < 0 { // apply reads any tau <= 0 as the 200 ms default
		return fmt.Errorf("scenario: negative placer timer %g s", s.Placer.TauSec)
	}
	if s.Topology.Kind == TopoNone {
		if s.Comm != core.CommNone {
			return fmt.Errorf("scenario: comm mode %v without a topology", s.Comm)
		}
		if s.Placer.Kind == PlNetworkAware { // binds to the live network
			return fmt.Errorf("scenario: placer %v without a topology", s.Placer)
		}
	} else if err := s.Topology.Builder().Check(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	} else if hosts := s.Topology.Hosts(); s.Servers > hosts {
		return fmt.Errorf("scenario: %d servers exceed %s's %d hosts", s.Servers, s.Topology, hosts)
	}
	if s.NetModel == network.ModelFluid && s.Comm != core.CommPacket {
		// The fluid model approximates *packet* transfers; flow-mode comm
		// already is fluid, and server-only runs have no network at all.
		return fmt.Errorf("scenario: fluid network model requires packet comm (have %v)", s.Comm)
	}
	if s.Comm != core.CommNone {
		// The cap network.TransferPackets puts on one edge's packets,
		// checked before a run reaches it. A flow-mode edge is held to
		// the same bytes: the network's byte counters sum payloads in
		// int64, and 1e17-byte flows wrap them.
		const mtu = network.MTUBytes
		if pkts := s.Factory.EdgeBytes/mtu + min(s.Factory.EdgeBytes%mtu, 1); pkts > network.MaxPacketsPerTransfer {
			return fmt.Errorf("scenario: edge payload of %d bytes needs %d packets at MTU %d, over the bound of %d",
				s.Factory.EdgeBytes, pkts, mtu, network.MaxPacketsPerTransfer)
		}
	}
	isTrace := s.Arrival.Kind == ArrTraceWiki || s.Arrival.Kind == ArrTraceNLANR ||
		s.Arrival.Kind == ArrTraceFile
	if s.MaxJobs < 0 || s.DurationSec < 0 {
		return fmt.Errorf("scenario: negative horizon (maxJobs %d, durationSec %g)", s.MaxJobs, s.DurationSec)
	}
	if s.MaxJobs <= 0 && s.DurationSec <= 0 && !isTrace {
		return fmt.Errorf("scenario: unbounded horizon")
	}
	if s.DVFS && s.DurationSec <= 0 {
		// The governor re-arms its tick forever; only a time horizon
		// terminates such a run.
		return fmt.Errorf("scenario: DVFS requires a duration horizon")
	}
	if !(s.Arrival.Rho > 0 && s.Arrival.Rho < 1.5) {
		return fmt.Errorf("scenario: utilization %g out of range", s.Arrival.Rho)
	}
	if s.Arrival.Kind == ArrMMPP {
		if s.Arrival.BurstRatio < 1 {
			return fmt.Errorf("scenario: MMPP burst ratio %g < 1", s.Arrival.BurstRatio)
		}
		_, lambdaL := s.Arrival.mmppRates(s.arrivalRate())
		const cycle = mmppBurstSec + mmppQuietSec
		if gap := 1 / lambdaL; !(gap <= maxMMPPCyclesPerGap*cycle) {
			return fmt.Errorf("scenario: %s's quiet-state mean gap of %.3g s spans %.3g modulating cycles of %g s, over the bound of %g",
				s.Arrival, gap, gap/cycle, cycle, maxMMPPCyclesPerGap)
		}
	}
	if s.Arrival.TraceSec < 0 {
		return fmt.Errorf("scenario: negative trace length %g s", s.Arrival.TraceSec)
	}
	if s.Arrival.Kind == ArrTraceNLANR {
		// A recorded trace's own rate is known only once Config reads
		// the file; replayScaled reports an overflow there.
		mr := trace.NLANRMeanRate(nlanrOnRate, nlanrBackground)
		if _, err := rescaleFactor(mr, s.Arrival.traceLen(), s.arrivalRate()); err != nil {
			return fmt.Errorf("scenario: %s: %w", s.Arrival, err)
		}
	}
	// The cap trace.Read puts on a recorded trace, checked before the
	// run synthesizes one.
	if n := s.Arrival.synthArrivals(s.arrivalRate()); n > trace.DefaultMaxArrivals {
		return fmt.Errorf("scenario: %s synthesizes %.3g arrivals (or one-second buckets), over the bound of %d",
			s.Arrival, n, trace.DefaultMaxArrivals)
	}
	if s.Arrival.Kind == ArrTraceFile && s.Arrival.TraceFile == "" {
		return fmt.Errorf("scenario: trace-file arrival without a trace file")
	}
	if s.Arrival.Kind != ArrTraceFile && s.Arrival.TraceFile != "" {
		return fmt.Errorf("scenario: trace file %q on a %s arrival", s.Arrival.TraceFile, s.Arrival)
	}
	if s.Arrival.ClipFromSec != 0 || s.Arrival.ClipToSec != 0 {
		if s.Arrival.Kind != ArrTraceFile {
			return fmt.Errorf("scenario: clip window [%g, %g) on a %s arrival",
				s.Arrival.ClipFromSec, s.Arrival.ClipToSec, s.Arrival)
		}
		if s.Arrival.ClipFromSec < 0 || s.Arrival.ClipToSec < 0 {
			return fmt.Errorf("scenario: negative clip window [%g, %g)",
				s.Arrival.ClipFromSec, s.Arrival.ClipToSec)
		}
		if s.Arrival.ClipToSec != 0 && s.Arrival.ClipToSec <= s.Arrival.ClipFromSec {
			return fmt.Errorf("scenario: empty clip window [%g, %g)",
				s.Arrival.ClipFromSec, s.Arrival.ClipToSec)
		}
	}
	if err := s.Factory.validate(); err != nil {
		return err
	}
	return s.Faults.Validate()
}

// arrivalRate is the job arrival rate (1/s) that puts the farm at
// utilization Arrival.Rho.
func (s Scenario) arrivalRate() float64 {
	return workload.UtilizationRate(s.Arrival.Rho, s.Servers, profileCores[s.Profile],
		s.Factory.Service.sampler().Mean()*s.Factory.meanTasksPerJob())
}

// Config assembles the core configuration. The result is a pure
// function of the scenario value (all randomness derives from Seed).
func (s Scenario) Config() (core.Config, error) {
	if err := s.Validate(); err != nil {
		return core.Config{}, err
	}
	prof := s.Profile.profile()
	sc := server.DefaultConfig(prof)
	sc.QueueMode = s.Queue
	if s.DelayTimerSec >= 0 {
		sc.DelayTimerEnabled = true
		sc.DelayTimer = simtime.FromSeconds(s.DelayTimerSec)
	}
	cfg := core.Config{
		Seed:            s.Seed,
		Servers:         s.Servers,
		ServerConfig:    sc,
		UseGlobalQueue:  s.GlobalQueue,
		MaxJobs:         s.MaxJobs,
		Duration:        simtime.FromSeconds(s.DurationSec),
		Check:           true,
		CheckStationary: s.CheckStationary,
	}
	if s.Heterogeneous {
		cores := prof.Cores
		mix := make([]float64, cores)
		for i := range mix {
			if i < cores/2 {
				mix[i] = 1.25
			} else {
				mix[i] = 0.8
			}
		}
		cfg.ConfigureServer = func(i int, c *server.Config) {
			if i%2 == 1 {
				c.CoreSpeeds = mix
			}
		}
	}
	if s.Topology.Kind != TopoNone {
		cfg.Topology = s.Topology.Builder()
		ports := s.Topology.MaxSwitchDegree()
		var swProf *power.SwitchProfile
		if ports > 0 {
			swProf = power.DataCenter10G(ports)
		}
		ncfg := network.DefaultConfig(swProf)
		ncfg.Model = s.NetModel
		if s.SwitchSleepSec >= 0 {
			ncfg.SwitchSleepIdle = simtime.FromSeconds(s.SwitchSleepSec)
		} else {
			ncfg.SwitchSleepIdle = -1
		}
		cfg.NetworkConfig = ncfg
		cfg.CommMode = s.Comm
	}
	// All scenario-level randomness (trace synthesis, the random
	// placer) splits off one master stream per seed, disjoint from the
	// core's own "workload" stream by label.
	master := rng.New(s.Seed).Split("scenario")
	if err := s.Placer.apply(&cfg, s.Servers, master); err != nil {
		return core.Config{}, err
	}
	rate := s.arrivalRate()
	proc, err := s.Arrival.process(rate, master)
	if err != nil {
		return core.Config{}, err
	}
	cfg.Arrivals = proc
	factory, err := s.Factory.factory()
	if err != nil {
		return core.Config{}, err
	}
	cfg.Factory = factory
	if !s.Faults.Empty() {
		spec := s.Faults
		if spec.HorizonSec <= 0 {
			// MaxJobs horizons have no fixed virtual end; estimate the
			// generation span from the derived arrival rate so fault
			// instants land inside the run. Pure function of the
			// scenario value, so replay stays deterministic.
			spec.HorizonSec = s.DurationSec
			if spec.HorizonSec <= 0 && rate > 0 {
				// Capped under the clock's end, which no arrival passes.
				spec.HorizonSec = min(float64(s.MaxJobs)/rate, math.Nextafter(simtime.Forever.Seconds(), 0))
			}
			if spec.HorizonSec <= 0 {
				spec.HorizonSec = 1
			}
		}
		cfg.Faults = &spec
	}
	return cfg, nil
}

// Build constructs the data center (invariant checking always on).
func (s Scenario) Build() (*core.DataCenter, error) {
	return s.buildCover(nil)
}

// buildCover is Build with an optional model-state coverage map wired
// through core.Config.Cover (nil collects nothing).
func (s Scenario) buildCover(m *modelcov.Map) (*core.DataCenter, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	cfg.Cover = m
	dc, err := core.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name(), err)
	}
	if s.DVFS {
		for _, srv := range dc.Servers {
			server.NewDVFSGovernor(srv).Start()
		}
	}
	return dc, nil
}

// Result is one scenario run's outcome.
type Result struct {
	Results    *core.Results
	Violations []invariant.Violation
}

// Run builds and executes the scenario. The returned error covers both
// construction failures and invariant violations; Result.Violations
// carries the latter in structured form.
func (s Scenario) Run() (Result, error) {
	return s.RunCover(nil)
}

// RunCover is Run with a model-state coverage map attached for the
// duration of the run: the simulation records which semantic features
// (state transitions, drop sites, fault paths, ...) it exercised into
// m. A nil m is exactly Run. Coverage collection is observation-only:
// the returned Result is byte-identical either way.
func (s Scenario) RunCover(m *modelcov.Map) (Result, error) {
	dc, err := s.buildCover(m)
	if err != nil {
		return Result{}, err
	}
	res, err := dc.Run()
	out := Result{Results: res}
	if c := dc.Checker(); c != nil {
		out.Violations = c.Violations()
	}
	if err != nil {
		return out, fmt.Errorf("scenario %s: %w", s.Name(), err)
	}
	return out, nil
}
