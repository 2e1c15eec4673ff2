// Package fault injects component failures into a running simulation:
// server crash/recover with an orphaned-task policy, link flap with
// in-flight packet loss, and switch death partitioning the topology.
//
// The design follows the "normal failure" view of cloud-scale data
// centers (SPECI-2, DCSim): component loss is steady-state, not an
// exception, so a holistic simulator must model it jointly with
// scheduling and power management — a crashed server's queue is lost or
// requeued, a dead switch silently blackholes the flows crossing it,
// and the energy books must exclude down time.
//
// Beyond independent point faults, the engine models *correlated*
// failure: blast-radius events whose target is a whole rack, pod, or
// switch subtree (every component in scope crashes atomically, in
// deterministic ascending order); MTTF/MTTR renewal processes drawing
// open-ended per-component failure/repair timelines from Weibull or
// exponential lifetime distributions, with a repair-crew capacity limit
// serializing recoveries; cascade rules where an applied crash
// overload-crashes pod siblings with per-edge probability, delay, and a
// depth cap; and outage-log replay from recorded `start dur scope
// target` trace files (see internal/trace.ReadOutages).
//
// Determinism contract: a fault timeline is a pure function of (seed,
// spec, farm shape) — Spec.Timeline draws every fault instant and
// duration from one labeled rng stream — and the Injector delivers each
// event through the engine's ordinary event queue, so a faulted run
// replays byte-identically and an empty timeline leaves the simulation
// byte-identical to an un-instrumented one (TestFaultFreeEquivalence).
//
// Accounting contract: the Injector keeps a Ledger of every fault
// applied and every job lost, fed by the scheduler's return values and
// loss callbacks — an account independent of the scheduler's own
// counters, which the invariant checker reconciles at Finalize
// (generated == completed + in-system + lost, with lost cross-checked
// against the ledger).
package fault

import (
	"fmt"
	"math"
	"sort"

	"holdcsim/internal/engine"
	"holdcsim/internal/job"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/network"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
)

// Kind is a fault event type.
type Kind uint8

// Fault event kinds. Down/up events come in pairs; the Injector skips
// an event whose target is already in the requested state (two crash
// draws overlapping on one server), counting it in the ledger.
const (
	ServerCrash Kind = iota
	ServerRecover
	LinkCut
	LinkRestore
	SwitchFail
	SwitchRestore
	// ScopeDown and ScopeUp are blast-radius events: Target names a
	// scope instance (rack index, pod index, switch index, or server
	// index per Event.Scope) and the whole membership goes down or
	// comes back atomically.
	ScopeDown
	ScopeUp
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ServerCrash:
		return "server-crash"
	case ServerRecover:
		return "server-recover"
	case LinkCut:
		return "link-cut"
	case LinkRestore:
		return "link-restore"
	case SwitchFail:
		return "switch-fail"
	case SwitchRestore:
		return "switch-restore"
	case ScopeDown:
		return "scope-down"
	case ScopeUp:
		return "scope-up"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault. Target indexes servers, links, or
// switches (network.Switches() order) per the kind. Pair ties a
// down/up couple together: a restore applies only if its own outage's
// down event was the one that took the target down, so overlapping
// draws on one target cannot truncate an earlier outage's duration.
type Event struct {
	At     simtime.Time
	Kind   Kind
	Target int
	Pair   int
	// Scope qualifies ScopeDown/ScopeUp events: the failure domain
	// Target indexes into. Zero (ScopeServer) for point events.
	Scope ScopeKind
}

// Timeline is a time-ordered fault schedule.
type Timeline struct {
	Events []Event
}

// Spec declares a fault workload as plain, comparable data — a scenario
// axis. Counts say how many outages of each class to draw; durations
// are mean outage lengths (each outage draws uniformly in [0.5, 1.5]×
// mean, so recoveries stay bounded). The zero Spec is fault-free.
type Spec struct {
	// ServerCrashes is the number of server crash/recover pairs.
	ServerCrashes int `json:"serverCrashes,omitempty"`
	// ServerDownSec is the mean server outage duration in seconds.
	ServerDownSec float64 `json:"serverDownSec,omitempty"`
	// LinkFlaps is the number of link cut/restore pairs.
	LinkFlaps int `json:"linkFlaps,omitempty"`
	// LinkDownSec is the mean link outage duration in seconds.
	LinkDownSec float64 `json:"linkDownSec,omitempty"`
	// SwitchKills is the number of switch fail/restore pairs.
	SwitchKills int `json:"switchKills,omitempty"`
	// SwitchDownSec is the mean switch outage duration in seconds.
	SwitchDownSec float64 `json:"switchDownSec,omitempty"`
	// HorizonSec is the window fault instants are drawn from. When zero
	// the simulation's duration horizon is used (core fills it in).
	HorizonSec float64 `json:"horizonSec,omitempty"`
	// Orphans selects the crash policy for stranded tasks: requeue
	// (default) or drop the whole job.
	Orphans sched.OrphanPolicy `json:"orphans,omitempty"`

	// Blast-radius classes: each draws count scope-down/up pairs whose
	// target is a whole failure domain, resolved against the topology's
	// ScopeMap. RackKills takes out a rack's servers plus its ToR;
	// PodKills a pod's servers plus its switches; SubtreeKills a switch
	// plus its directly attached servers.
	RackKills      int     `json:"rackKills,omitempty"`
	RackDownSec    float64 `json:"rackDownSec,omitempty"`
	PodKills       int     `json:"podKills,omitempty"`
	PodDownSec     float64 `json:"podDownSec,omitempty"`
	SubtreeKills   int     `json:"subtreeKills,omitempty"`
	SubtreeDownSec float64 `json:"subtreeDownSec,omitempty"`

	// Renewal processes: when a class MTTF is positive, every component
	// of that class alternates Weibull(WeibullShape)-distributed
	// lifetimes (mean MTTF) and exponential repairs (mean MTTR) across
	// the whole horizon. WeibullShape zero or one selects the
	// exponential lifetime. RepairCrews > 0 bounds concurrent repairs:
	// a failed component waits for a free crew before its repair clock
	// starts (zero means unlimited crews).
	ServerMTTFSec float64 `json:"serverMTTFSec,omitempty"`
	ServerMTTRSec float64 `json:"serverMTTRSec,omitempty"`
	SwitchMTTFSec float64 `json:"switchMTTFSec,omitempty"`
	SwitchMTTRSec float64 `json:"switchMTTRSec,omitempty"`
	WeibullShape  float64 `json:"weibullShape,omitempty"`
	RepairCrews   int     `json:"repairCrews,omitempty"`

	// Cascade rules: an applied crash that takes down at least one
	// server overload-crashes each still-alive pod sibling with
	// probability CascadeP after a delay drawn around CascadeDelaySec,
	// recursively up to CascadeDepth levels. Both CascadeP > 0 and
	// CascadeDepth > 0 are required for cascades to fire.
	CascadeP        float64 `json:"cascadeP,omitempty"`
	CascadeDelaySec float64 `json:"cascadeDelaySec,omitempty"`
	CascadeDepth    int     `json:"cascadeDepth,omitempty"`

	// TraceFile replays a recorded outage log (one `start dur scope
	// target` event per line; see trace.ReadOutages) on top of any
	// drawn classes.
	TraceFile string `json:"traceFile,omitempty"`
}

// Empty reports whether the spec schedules no faults.
func (sp Spec) Empty() bool {
	return sp.ServerCrashes == 0 && sp.LinkFlaps == 0 && sp.SwitchKills == 0 &&
		sp.RackKills == 0 && sp.PodKills == 0 && sp.SubtreeKills == 0 &&
		sp.ServerMTTFSec == 0 && sp.SwitchMTTFSec == 0 && sp.TraceFile == ""
}

// Zero reports whether the spec is the zero value — not merely
// scheduling no faults, but carrying no parameters at all. The
// distinction matters to scenario labels: an Empty-but-not-Zero spec
// still distinguishes two scenario values.
func (sp Spec) Zero() bool { return sp == Spec{} }

// Validate rejects malformed specs (negative counts, non-finite or
// negative durations).
func (sp Spec) Validate() error {
	if sp.ServerCrashes < 0 || sp.LinkFlaps < 0 || sp.SwitchKills < 0 ||
		sp.RackKills < 0 || sp.PodKills < 0 || sp.SubtreeKills < 0 {
		return fmt.Errorf("fault: negative event count in %+v", sp)
	}
	if sp.RepairCrews < 0 || sp.CascadeDepth < 0 {
		return fmt.Errorf("fault: negative capacity in %+v", sp)
	}
	for _, n := range [...]int{sp.ServerCrashes, sp.LinkFlaps, sp.SwitchKills,
		sp.RackKills, sp.PodKills, sp.SubtreeKills, sp.RepairCrews} {
		if n > maxClassEvents {
			return fmt.Errorf("fault: count %d exceeds the bound of %d a class", n, maxClassEvents)
		}
	}
	for _, d := range [...]float64{sp.ServerDownSec, sp.LinkDownSec, sp.SwitchDownSec, sp.HorizonSec,
		sp.RackDownSec, sp.PodDownSec, sp.SubtreeDownSec,
		sp.ServerMTTFSec, sp.ServerMTTRSec, sp.SwitchMTTFSec, sp.SwitchMTTRSec,
		sp.WeibullShape, sp.CascadeDelaySec} {
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return fmt.Errorf("fault: invalid duration %g", d)
		}
	}
	if math.IsNaN(sp.CascadeP) || sp.CascadeP < 0 || sp.CascadeP > 1 {
		return fmt.Errorf("fault: cascade probability %g outside [0, 1]", sp.CascadeP)
	}
	if sp.ServerMTTFSec > 0 && sp.ServerMTTRSec <= 0 {
		return fmt.Errorf("fault: server renewal needs a positive MTTR (mttf=%g)", sp.ServerMTTFSec)
	}
	if sp.SwitchMTTFSec > 0 && sp.SwitchMTTRSec <= 0 {
		return fmt.Errorf("fault: switch renewal needs a positive MTTR (mttf=%g)", sp.SwitchMTTFSec)
	}
	return nil
}

// String summarizes the spec ("nofault" for the zero value) for
// scenario names. The rendering is injective over spec values: every
// field appears with round-trip precision — durations, the draw horizon
// when set, and (for an Empty spec with leftover parameters) a
// parenthesized tail — so two distinct specs never share a label.
func (sp Spec) String() string {
	if sp.Zero() {
		return "nofault"
	}
	if sp.Empty() {
		return fmt.Sprintf("nofault(c%g-l%g-s%g-h%g-%s%s)",
			sp.ServerDownSec, sp.LinkDownSec, sp.SwitchDownSec, sp.HorizonSec, sp.Orphans, sp.ext())
	}
	s := fmt.Sprintf("f%dc%g-%dl%g-%ds%g-%s",
		sp.ServerCrashes, sp.ServerDownSec,
		sp.LinkFlaps, sp.LinkDownSec,
		sp.SwitchKills, sp.SwitchDownSec, sp.Orphans)
	if sp.HorizonSec != 0 {
		s += fmt.Sprintf("-h%g", sp.HorizonSec)
	}
	return s + sp.ext()
}

// ext renders the correlated-model fields as label segments. Every
// segment appears exactly when its fields are nonzero and carries them
// at round-trip precision, so the extended label stays injective while
// pre-correlation specs render byte-identically to before.
func (sp Spec) ext() string {
	var s string
	if sp.RackKills != 0 || sp.RackDownSec != 0 {
		s += fmt.Sprintf("-%drk%g", sp.RackKills, sp.RackDownSec)
	}
	if sp.PodKills != 0 || sp.PodDownSec != 0 {
		s += fmt.Sprintf("-%dpd%g", sp.PodKills, sp.PodDownSec)
	}
	if sp.SubtreeKills != 0 || sp.SubtreeDownSec != 0 {
		s += fmt.Sprintf("-%dst%g", sp.SubtreeKills, sp.SubtreeDownSec)
	}
	if sp.ServerMTTFSec != 0 || sp.ServerMTTRSec != 0 {
		s += fmt.Sprintf("-mttf%g:%g", sp.ServerMTTFSec, sp.ServerMTTRSec)
	}
	if sp.SwitchMTTFSec != 0 || sp.SwitchMTTRSec != 0 {
		s += fmt.Sprintf("-swmttf%g:%g", sp.SwitchMTTFSec, sp.SwitchMTTRSec)
	}
	if sp.WeibullShape != 0 {
		s += fmt.Sprintf("-wb%g", sp.WeibullShape)
	}
	if sp.RepairCrews != 0 {
		s += fmt.Sprintf("-crew%d", sp.RepairCrews)
	}
	if sp.CascadeP != 0 || sp.CascadeDelaySec != 0 || sp.CascadeDepth != 0 {
		s += fmt.Sprintf("-casc%g:%g:%d", sp.CascadeP, sp.CascadeDelaySec, sp.CascadeDepth)
	}
	if sp.TraceFile != "" {
		s += fmt.Sprintf("-tf%q", sp.TraceFile)
	}
	return s
}

func sortTimeline(tl *Timeline) {
	sort.SliceStable(tl.Events, func(i, j int) bool {
		return tl.Events[i].At < tl.Events[j].At
	})
}

// Ledger is the injector's independent account of applied faults and
// lost work. It accumulates through the scheduler's return values and
// loss callbacks — not the scheduler's own counters — so the invariant
// checker can reconcile the two at the end of a run.
type Ledger struct {
	ServerCrashes   int64
	ServerRecovers  int64
	LinkCuts        int64
	LinkRestores    int64
	SwitchFails     int64
	SwitchRestores  int64
	Skipped         int64 // events whose target was already in the requested state
	JobsLostCrash   int64 // jobs retracted by a crash (OrphanDrop)
	JobsLostNoAlive int64 // jobs retracted for lack of any alive server (OrphanDrop)
	TasksOrphaned   int64 // task incarnations stranded on crashed servers

	// JobsLostByScope attributes JobsLostCrash to the scope of the
	// causing down event (indexed by ScopeKind; point server crashes
	// land on ScopeServer). The scope-consistency invariant law checks
	// the attribution sums back to JobsLostCrash.
	JobsLostByScope [NumScopes]int64
	// CascadeCrashes counts server crashes applied at cascade depth
	// >= 1 — a subset of ServerCrashes.
	CascadeCrashes int64
}

// JobsLost reports total jobs the ledger saw lost.
func (ld Ledger) JobsLost() int64 { return ld.JobsLostCrash + ld.JobsLostNoAlive }

// Applied reports total fault events applied (skips excluded).
func (ld Ledger) Applied() int64 {
	return ld.ServerCrashes + ld.ServerRecovers + ld.LinkCuts +
		ld.LinkRestores + ld.SwitchFails + ld.SwitchRestores
}

// Injector owns a timeline's delivery: one engine event per fault, in
// timeline order, applied against the scheduler and network.
type Injector struct {
	eng     *engine.Engine
	sch     *sched.Scheduler
	servers []*server.Server
	net     *network.Network // nil on server-only farms
	ledger  Ledger

	// Correlated-model state: scope resolution, the cascade rng (nil
	// disables cascades), the spec's cascade parameters, and the next
	// pair id for cascade-scheduled outages (above the timeline's).
	topo     *Topo
	cascade  *rng.Source
	spec     Spec
	nextPair int

	// downBy records, per target class, which outage pair took a target
	// down. A restore whose pair does not match is skipped: its own down
	// event overlapped an earlier outage and was itself skipped, so
	// applying its restore would truncate the earlier outage's duration.
	srvDownBy  map[int]int
	linkDownBy map[int]int
	swDownBy   map[int]int

	// cover, when non-nil, receives applied-fault-kind, scope, and
	// cascade-depth coverage features (modelcov; recording only).
	cover *modelcov.Map
}

// AttachOpts carries the correlated-model wiring for Attach. The zero
// value is plain point-fault attachment.
type AttachOpts struct {
	// Topo resolves rack/pod/subtree scopes; nil restricts scoped
	// events to ScopeServer.
	Topo *Topo
	// Cascade is the rng stream cascade draws consume; nil disables
	// cascades regardless of Spec.
	Cascade *rng.Source
	// Spec supplies the cascade parameters (CascadeP, CascadeDelaySec,
	// CascadeDepth) and the fallback outage duration for cascade
	// crashes (ServerDownSec).
	Spec Spec
	// Cover, when non-nil, records applied fault kinds, blast-radius
	// scopes, and cascade depths into the model-state coverage map.
	Cover *modelcov.Map
}

// Attach schedules a timeline's events on the engine and wires the
// ledger's loss subscription. net may be nil (server-only farm);
// network events are then skipped. Call before the run starts so event
// ordering is deterministic.
func Attach(eng *engine.Engine, tl Timeline, sch *sched.Scheduler,
	servers []*server.Server, net *network.Network, o AttachOpts) *Injector {
	inj := &Injector{
		eng: eng, sch: sch, servers: servers, net: net,
		topo: o.Topo, cascade: o.Cascade, spec: o.Spec, cover: o.Cover,
		srvDownBy:  make(map[int]int),
		linkDownBy: make(map[int]int),
		swDownBy:   make(map[int]int),
	}
	for _, ev := range tl.Events {
		if ev.Pair >= inj.nextPair {
			inj.nextPair = ev.Pair + 1
		}
	}
	sch.OnJobLost(func(j *job.Job, reason sched.LostReason) {
		if reason == sched.LostNoAliveServer {
			inj.ledger.JobsLostNoAlive++
		}
	})
	for _, ev := range tl.Events {
		ev := ev
		eng.Schedule(ev.At, func() { inj.apply(ev, 0) })
	}
	return inj
}

// Ledger snapshots the fault account.
func (inj *Injector) Ledger() Ledger { return inj.ledger }

// JobsLost reports the ledger's independent lost-job total (the
// invariant checker's cross-check hook).
func (inj *Injector) JobsLost() int64 { return inj.ledger.JobsLost() }

// apply delivers one fault event. Events whose target is already in the
// requested state (or out of range for this farm) are skipped and
// counted; a restore whose matching down event was skipped is skipped
// too, so every applied outage runs its full drawn duration. depth is
// the cascade depth of the event (0 for timeline events); an applied
// crash may trigger dependent failures via the cascade rules.
func (inj *Injector) apply(ev Event, depth int) {
	switch ev.Kind {
	case ServerCrash:
		if ev.Target >= len(inj.servers) || inj.servers[ev.Target].Failed() {
			inj.ledger.Skipped++
			return
		}
		// Ownership is recorded before the crash call: orphan handling can
		// re-enter the scheduler (and the invariant deep scan) while the
		// server is already down, and the scope-consistency law requires
		// every down component to have an owning outage at all times.
		inj.srvDownBy[ev.Target] = ev.Pair
		lost, orphans := inj.sch.ServerCrashed(inj.servers[ev.Target])
		inj.ledger.ServerCrashes++
		inj.ledger.JobsLostCrash += int64(lost)
		inj.ledger.JobsLostByScope[ScopeServer] += int64(lost)
		inj.ledger.TasksOrphaned += int64(orphans)
		inj.cover.Hit(modelcov.FaultKind(int(ev.Kind)))
		if depth > 0 {
			inj.ledger.CascadeCrashes++
			inj.cover.Hit(modelcov.CascadeDepth(depth))
		}
		inj.maybeCascade(ev.Target, depth)
	case ServerRecover:
		if ev.Target >= len(inj.servers) || !inj.servers[ev.Target].Failed() ||
			inj.srvDownBy[ev.Target] != ev.Pair {
			inj.ledger.Skipped++
			return
		}
		delete(inj.srvDownBy, ev.Target)
		inj.sch.ServerRecovered(inj.servers[ev.Target])
		inj.ledger.ServerRecovers++
		inj.cover.Hit(modelcov.FaultKind(int(ev.Kind)))
	case LinkCut:
		if inj.net == nil || ev.Target >= inj.net.NumLinks() || inj.net.LinkAdminDown(ev.Target) {
			inj.ledger.Skipped++
			return
		}
		inj.linkDownBy[ev.Target] = ev.Pair
		if err := inj.net.SetLinkAdmin(ev.Target, false); err != nil {
			panic(err) // range-checked above
		}
		inj.ledger.LinkCuts++
		inj.cover.Hit(modelcov.FaultKind(int(ev.Kind)))
	case LinkRestore:
		if inj.net == nil || ev.Target >= inj.net.NumLinks() || !inj.net.LinkAdminDown(ev.Target) ||
			inj.linkDownBy[ev.Target] != ev.Pair {
			inj.ledger.Skipped++
			return
		}
		delete(inj.linkDownBy, ev.Target)
		if err := inj.net.SetLinkAdmin(ev.Target, true); err != nil {
			panic(err)
		}
		inj.ledger.LinkRestores++
		inj.cover.Hit(modelcov.FaultKind(int(ev.Kind)))
	case SwitchFail:
		sw := inj.switchAt(ev.Target)
		if sw == nil || sw.Failed() {
			inj.ledger.Skipped++
			return
		}
		inj.swDownBy[ev.Target] = ev.Pair
		if err := inj.net.SetSwitchAdmin(sw.Node(), false); err != nil {
			panic(err)
		}
		inj.ledger.SwitchFails++
		inj.cover.Hit(modelcov.FaultKind(int(ev.Kind)))
	case SwitchRestore:
		sw := inj.switchAt(ev.Target)
		if sw == nil || !sw.Failed() || inj.swDownBy[ev.Target] != ev.Pair {
			inj.ledger.Skipped++
			return
		}
		delete(inj.swDownBy, ev.Target)
		if err := inj.net.SetSwitchAdmin(sw.Node(), true); err != nil {
			panic(err)
		}
		inj.ledger.SwitchRestores++
		inj.cover.Hit(modelcov.FaultKind(int(ev.Kind)))
	case ScopeDown:
		inj.applyScopeDown(ev, depth)
	case ScopeUp:
		inj.applyScopeUp(ev)
	}
}

// switchAt resolves a switch index (Switches() order) or nil.
func (inj *Injector) switchAt(i int) *network.Switch {
	if inj.net == nil {
		return nil
	}
	sws := inj.net.Switches()
	if i >= len(sws) {
		return nil
	}
	return sws[i]
}
