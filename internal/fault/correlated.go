package fault

import (
	"fmt"
	"os"

	"holdcsim/internal/dist"
	"holdcsim/internal/rng"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
	"holdcsim/internal/trace"
)

// ScopeKind names the failure domain a fault event targets.
type ScopeKind uint8

// Failure-domain kinds. The first four match trace.OutageScopes so
// outage logs map positionally; links and bare switches follow, reached
// only by the Spec's linkFlaps and switchKills classes.
const (
	// ScopeServer is a single server.
	ScopeServer ScopeKind = iota
	// ScopeRack is a rack's servers plus its ToR switch.
	ScopeRack
	// ScopePod is a pod's servers plus its edge/aggregation switches.
	ScopePod
	// ScopeSubtree is a switch plus its directly attached servers (the
	// outage log's "switch").
	ScopeSubtree
	// ScopeLink is a single link.
	ScopeLink
	// ScopeSwitch is a single switch, its attached servers untouched.
	ScopeSwitch
	// NumScopes sizes per-domain arrays.
	NumScopes = 6
)

// ParseScope maps an outage-log scope word onto its ScopeKind.
func ParseScope(s string) (ScopeKind, bool) {
	for i, k := range trace.OutageScopes {
		if s == k {
			return ScopeKind(i), true
		}
	}
	return 0, false
}

// Topo is the domain-resolution table the injector draws and applies
// fault events against: failure-domain memberships in server and switch
// index space, derived from the topology's ScopeMap.
type Topo struct {
	// Servers, Links, Switches are the single-component populations.
	Servers  int
	Links    int
	Switches int
	// Racks[r] lists the server indices of rack r, ascending.
	Racks [][]int
	// RackSwitch[r] is rack r's ToR switch index, or -1.
	RackSwitch []int
	// Pods[p] lists the server indices of pod p, ascending.
	Pods [][]int
	// PodSwitches[p] lists the switch indices of pod p, ascending.
	PodSwitches [][]int
	// AttachedServers[s] lists the server indices directly attached to
	// switch s — its subtree blast radius.
	AttachedServers [][]int
	// PodOf[i] is server i's pod — the cascade rehoming domain.
	PodOf []int
}

// NewTopo projects a topology ScopeMap into server/switch index space.
// Host index i is server i for i < servers; the rows keep hosts beyond
// the server population (unused graph capacity), and the injector skips
// them wherever it applies an outage.
func NewTopo(sm *topology.ScopeMap, servers, links, switches int) *Topo {
	t := &Topo{
		Servers:         servers,
		Links:           links,
		Switches:        switches,
		Racks:           sm.RackHosts,
		RackSwitch:      sm.RackSwitch,
		Pods:            sm.PodHosts,
		PodSwitches:     sm.PodSwitches,
		AttachedServers: sm.AttachedHosts,
		PodOf:           make([]int, servers),
	}
	copy(t.PodOf, sm.PodOf)
	return t
}

// FallbackTopo is the scope table of a farm with no topology graph:
// racks are fixed blocks of topology.FallbackRackSize servers and the
// whole farm is one pod.
func FallbackTopo(servers int) *Topo {
	t := &Topo{Servers: servers, PodOf: make([]int, servers)}
	var pod []int
	for lo := 0; lo < servers; lo += topology.FallbackRackSize {
		hi := lo + topology.FallbackRackSize
		if hi > servers {
			hi = servers
		}
		rack := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			rack = append(rack, i)
			pod = append(pod, i)
		}
		t.Racks = append(t.Racks, rack)
		t.RackSwitch = append(t.RackSwitch, -1)
	}
	t.Pods = [][]int{pod}
	t.PodSwitches = [][]int{nil}
	return t
}

// maxClassEvents caps what one fault class may put on the timeline — a
// count the spec states, the down/up events a renewal process generates
// — and the repair crews it may ask for, so neither a hostile file nor a
// tiny MTTF against a long horizon can explode the timeline.
const maxClassEvents = 100_000

// TimelineFor draws the fault schedule, a pure function of the rng
// stream (derive it from the experiment seed with a dedicated label),
// the horizon and the farm shape: the server, link and switch classes
// first, in a frozen draw order, then blast-radius draws on the same
// stream, then renewal processes on dedicated split streams (gated on
// configuration so unconfigured specs consume nothing), then outage-log
// replay. A class whose target population is zero (link flaps on a
// server-only farm) is skipped. Outage instants are uniform over the
// first 90% of the horizon so a recovery usually lands inside the run;
// durations are uniform in [0.5, 1.5]× the class mean. An instant past
// the clock's end is Forever, which Attach queues no event for. Events
// sort stably by instant, so the relative order of equal-time draws is
// the draw order.
func (sp Spec) TimelineFor(r *rng.Source, horizonSec float64, topo *Topo) (Timeline, error) {
	var tl Timeline
	pair := 0
	draw := func(n, count int, downSec float64, scope ScopeKind) {
		if n <= 0 {
			return
		}
		for i := 0; i < count; i++ {
			at := simtime.FromSeconds(r.Float64() * horizonSec * 0.9)
			up := simtime.AddSeconds(at, downSec*(0.5+r.Float64()))
			target := r.IntN(n)
			tl.Events = append(tl.Events, Event{At: at, Scope: scope, Target: target, Pair: pair},
				Event{At: up, Scope: scope, Up: true, Target: target, Pair: pair})
			pair++
		}
	}
	draw(topo.Servers, sp.ServerCrashes, sp.ServerDownSec, ScopeServer)
	draw(topo.Links, sp.LinkFlaps, sp.LinkDownSec, ScopeLink)
	draw(topo.Switches, sp.SwitchKills, sp.SwitchDownSec, ScopeSwitch)
	draw(len(topo.Racks), sp.RackKills, sp.RackDownSec, ScopeRack)
	draw(len(topo.Pods), sp.PodKills, sp.PodDownSec, ScopePod)
	draw(topo.Switches, sp.SubtreeKills, sp.SubtreeDownSec, ScopeSubtree)
	if sp.ServerMTTFSec > 0 && topo.Servers > 0 {
		renew(r.Split("renewal-server"), horizonSec, topo.Servers,
			sp.ServerMTTFSec, sp.ServerMTTRSec, sp.WeibullShape, sp.RepairCrews,
			ScopeServer, &tl, &pair)
	}
	if sp.SwitchMTTFSec > 0 && topo.Switches > 0 {
		renew(r.Split("renewal-switch"), horizonSec, topo.Switches,
			sp.SwitchMTTFSec, sp.SwitchMTTRSec, sp.WeibullShape, sp.RepairCrews,
			ScopeSwitch, &tl, &pair)
	}
	if sp.TraceFile != "" {
		f, err := os.Open(sp.TraceFile)
		if err != nil {
			return Timeline{}, fmt.Errorf("fault: outage log: %w", err)
		}
		outs, rerr := trace.ReadOutages(f)
		f.Close()
		if rerr != nil {
			return Timeline{}, fmt.Errorf("fault: outage log %s: %w", sp.TraceFile, rerr)
		}
		for _, o := range outs {
			scope, ok := ParseScope(o.Scope)
			if !ok {
				return Timeline{}, fmt.Errorf("fault: outage log %s: unknown scope %q", sp.TraceFile, o.Scope)
			}
			at := simtime.AddSeconds(0, o.Start)
			tl.Events = append(tl.Events,
				Event{At: at, Scope: scope, Target: o.Target, Pair: pair},
				Event{At: simtime.AddSeconds(at, o.Dur), Scope: scope, Up: true, Target: o.Target, Pair: pair})
			pair++
		}
	}
	sortTimeline(&tl)
	return tl, nil
}

// renew generates one component class's MTTF/MTTR renewal timeline.
// Every component alternates Weibull-distributed lifetimes and
// exponential repairs; with a crew limit, a failed component's repair
// clock starts only when the earliest-free crew (lowest index on ties)
// becomes available. Failures are processed globally in time order
// (lowest component index on ties) so the draw sequence is a pure
// function of the stream.
func renew(r *rng.Source, horizonSec float64, n int, mttf, mttr, shape float64, crews int,
	scope ScopeKind, tl *Timeline, pair *int) {
	life := dist.WeibullFromMean(mttf, shape)
	nextFail := make([]float64, n)
	for i := range nextFail {
		nextFail[i] = life.Sample(r)
	}
	var crewFree []float64
	if crews > 0 {
		crewFree = make([]float64, crews)
	}
	for emitted := 0; emitted < maxClassEvents; emitted += 2 {
		c := -1
		for i, t := range nextFail {
			if t < horizonSec && (c < 0 || t < nextFail[c]) {
				c = i
			}
		}
		if c < 0 {
			return
		}
		ft := nextFail[c]
		rep := r.Exp(mttr)
		start := ft
		if crews > 0 {
			j := 0
			for k := 1; k < crews; k++ {
				if crewFree[k] < crewFree[j] {
					j = k
				}
			}
			if crewFree[j] > start {
				start = crewFree[j]
			}
			crewFree[j] = start + rep
		}
		end := start + rep
		tl.Events = append(tl.Events,
			Event{At: simtime.AddSeconds(0, ft), Scope: scope, Target: c, Pair: *pair},
			Event{At: simtime.AddSeconds(0, end), Scope: scope, Up: true, Target: c, Pair: *pair})
		*pair++
		nextFail[c] = end + life.Sample(r)
	}
}

// resolveScope expands a domain instance into server, link and switch
// index sets (each ascending). ok is false when the target cannot be
// resolved on this farm; the whole event then skips.
func (inj *Injector) resolveScope(scope ScopeKind, target int) (srvs, links, sws []int, ok bool) {
	t := inj.topo
	switches, numLinks := 0, 0
	if inj.net != nil {
		switches, numLinks = len(inj.net.Switches()), inj.net.NumLinks()
	}
	switch {
	case target < 0:
	case scope == ScopeServer && target < len(inj.servers):
		return []int{target}, nil, nil, true
	case scope == ScopeRack && target < len(t.Racks):
		if sw := t.RackSwitch[target]; sw >= 0 {
			sws = []int{sw}
		}
		return t.Racks[target], nil, sws, true
	case scope == ScopePod && target < len(t.Pods):
		return t.Pods[target], nil, t.PodSwitches[target], true
	case scope == ScopeSubtree && target < switches:
		if target < len(t.AttachedServers) {
			srvs = t.AttachedServers[target]
		}
		return srvs, nil, []int{target}, true
	case scope == ScopeLink && target < numLinks:
		return nil, []int{target}, nil, true
	case scope == ScopeSwitch && target < switches:
		return nil, nil, []int{target}, true
	}
	return nil, nil, nil, false
}

// maybeCascade applies the cascade rule after a crash: each still-alive
// server in the crashed component's pod (the rehoming domain)
// overload-crashes with probability CascadeP, after a delay drawn
// around CascadeDelaySec, recovering after a duration drawn around
// ServerDownSec (CascadeDelaySec when unset). Children carry depth+1
// and stop at CascadeDepth. Draws consume the dedicated cascade stream
// in ascending candidate order, so replay is deterministic.
func (inj *Injector) maybeCascade(crashed, depth int) {
	if inj.cascade == nil || depth >= inj.spec.CascadeDepth ||
		inj.spec.CascadeP <= 0 || crashed >= len(inj.topo.PodOf) {
		return
	}
	pod := inj.topo.PodOf[crashed]
	if pod >= len(inj.topo.Pods) {
		return
	}
	mean := inj.spec.ServerDownSec
	if mean <= 0 {
		mean = inj.spec.CascadeDelaySec
	}
	now := inj.eng.Now()
	for _, s := range inj.topo.Pods[pod] {
		if s >= len(inj.servers) || inj.servers[s].Failed() {
			continue
		}
		if !inj.cascade.Bernoulli(inj.spec.CascadeP) {
			continue
		}
		down := simtime.AddSeconds(now, inj.spec.CascadeDelaySec*(0.5+inj.cascade.Float64()))
		up := simtime.AddSeconds(down, mean*(0.5+inj.cascade.Float64()))
		pair := inj.nextPair
		inj.nextPair++
		inj.schedule(Event{At: down, Scope: ScopeServer, Target: s, Pair: pair}, depth+1)
		inj.schedule(Event{At: up, Scope: ScopeServer, Up: true, Target: s, Pair: pair}, depth+1)
	}
}

// Component classes, as the touched lists index them.
const (
	classServer = iota
	classLink
	classSwitch
	numClasses
)

// touch records that fail or restore took or released component i of
// class c, once a check has begun.
func (inj *Injector) touch(c, i int) {
	if inj.checked {
		inj.touched[c] = append(inj.touched[c], i)
	}
}

// CheckScopes is the scope-consistency invariant hook: ownership and
// component state must agree in both directions (a dead rack implies
// every owned member is still down; nothing is down without an owner),
// and the ledger's per-scope loss attribution must sum back to its
// crash-loss total. With full set, and on the first call, it walks
// every server, link and switch; otherwise only those fault events took
// or released since the last check, so a scan costs what the faults
// since the last one did, not the farm's size. A server no fault event
// touched — crashed or revived behind the injector's back — still shows
// at every scan, as a difference between the servers the injector owns
// down and the scheduler's down count. Iteration is index-ordered
// (touch-ordered when not full) so a violation message is
// deterministic.
func (inj *Injector) CheckScopes(full bool) error {
	full = full || !inj.checked
	inj.checked = true
	touched := inj.touched
	for c := range inj.touched {
		inj.touched[c] = inj.touched[c][:0]
	}
	var nLinks, nSws int
	if inj.net != nil {
		nLinks, nSws = inj.net.NumLinks(), len(inj.net.Switches())
	}
	for c, n := range [numClasses]int{len(inj.servers), nLinks, nSws} {
		if !full {
			for _, i := range touched[c] {
				if err := inj.checkOwner(c, i); err != nil {
					return err
				}
			}
			continue
		}
		for i := range n {
			if err := inj.checkOwner(c, i); err != nil {
				return err
			}
		}
	}
	if owned, down := len(inj.srvDownBy), inj.sch.ServersDown(); owned != down {
		return fmt.Errorf("%d servers down, %d owned by an outage", down, owned)
	}
	var sum int64
	for _, v := range inj.ledger.JobsLostByScope {
		sum += v
	}
	if sum != inj.ledger.JobsLostCrash {
		return fmt.Errorf("per-scope losses sum to %d, ledger total %d", sum, inj.ledger.JobsLostCrash)
	}
	if inj.ledger.CascadeCrashes > inj.ledger.ServerCrashes {
		return fmt.Errorf("cascade crashes %d exceed total crashes %d",
			inj.ledger.CascadeCrashes, inj.ledger.ServerCrashes)
	}
	return nil
}

// checkOwner holds component i of class c to the scope law: it is down
// exactly while an outage owns it.
func (inj *Injector) checkOwner(c, i int) error {
	var pair int
	var owned, down bool
	switch c {
	case classServer:
		pair, owned = inj.srvDownBy[i]
		down = inj.servers[i].Failed()
	case classLink:
		pair, owned = inj.linkDownBy[i]
		down = inj.net.LinkAdminDown(i)
	default:
		pair, owned = inj.swDownBy[i]
		down = inj.net.Switches()[i].Failed()
	}
	switch {
	case owned && !down:
		return fmt.Errorf("%s %d owned-down by pair %d but up", classNames[c], i, pair)
	case !owned && down:
		return fmt.Errorf("%s %d down without an owning outage", classNames[c], i)
	}
	return nil
}

// classNames name the classes in violation messages.
var classNames = [numClasses]string{"server", "link", "switch"}
