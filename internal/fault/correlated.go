package fault

import (
	"fmt"
	"os"

	"holdcsim/internal/dist"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/rng"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
	"holdcsim/internal/trace"
)

// ScopeKind names the failure domain a blast-radius event targets.
type ScopeKind uint8

// Failure-domain kinds. The order matches trace.OutageScopes so outage
// logs map positionally.
const (
	// ScopeServer is a single server — the point-fault blast radius.
	ScopeServer ScopeKind = iota
	// ScopeRack is a rack's servers plus its ToR switch.
	ScopeRack
	// ScopePod is a pod's servers plus its edge/aggregation switches.
	ScopePod
	// ScopeSwitch is a switch plus its directly attached servers.
	ScopeSwitch
	// NumScopes sizes per-scope arrays.
	NumScopes = 4
)

// String implements fmt.Stringer.
func (s ScopeKind) String() string {
	if int(s) < len(trace.OutageScopes) {
		return trace.OutageScopes[s]
	}
	return fmt.Sprintf("ScopeKind(%d)", int(s))
}

// ParseScope maps an outage-log scope word onto its ScopeKind.
func ParseScope(s string) (ScopeKind, bool) {
	for i, k := range trace.OutageScopes {
		if s == k {
			return ScopeKind(i), true
		}
	}
	return 0, false
}

// Topo is the scope-resolution table the correlated engine draws and
// applies blast-radius events against: failure-domain memberships in
// server and switch index space, derived from the topology's ScopeMap.
type Topo struct {
	// Servers, Links, Switches are the point-class populations.
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

// PointTopo is a scope table with populations only: scoped events
// beyond ScopeServer resolve to nothing and renewal classes still run.
func PointTopo(servers, links, switches int) *Topo {
	return &Topo{Servers: servers, Links: links, Switches: switches}
}

// NewTopo projects a topology ScopeMap into server/switch index space.
// Host index i is server i for i < servers; hosts beyond the server
// population (unused graph capacity) drop out of every scope.
func NewTopo(sm *topology.ScopeMap, servers, links, switches int) *Topo {
	clamp := func(hosts []int) []int {
		var out []int
		for _, h := range hosts {
			if h < servers {
				out = append(out, h)
			}
		}
		return out
	}
	t := &Topo{
		Servers:  servers,
		Links:    links,
		Switches: switches,
		PodOf:    make([]int, servers),
	}
	for r, hs := range sm.RackHosts {
		t.Racks = append(t.Racks, clamp(hs))
		t.RackSwitch = append(t.RackSwitch, sm.RackSwitch[r])
	}
	for p, hs := range sm.PodHosts {
		t.Pods = append(t.Pods, clamp(hs))
		t.PodSwitches = append(t.PodSwitches, sm.PodSwitches[p])
	}
	for _, hs := range sm.AttachedHosts {
		t.AttachedServers = append(t.AttachedServers, clamp(hs))
	}
	for i := 0; i < servers; i++ {
		if i < len(sm.PodOf) {
			t.PodOf[i] = sm.PodOf[i]
		}
	}
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
// the horizon and the farm shape: the three point classes first, in a
// frozen draw order, then blast-radius draws per scope class on the same
// stream, then renewal processes on dedicated split streams (gated on
// configuration so unconfigured specs consume nothing), then outage-log
// replay. A class whose target population is zero (link flaps on a
// server-only farm) is skipped. Outage instants are uniform over the
// first 90% of the horizon so a recovery usually lands inside the run;
// durations are uniform in [0.5, 1.5]× the class mean. Events sort
// stably by instant, so the relative order of equal-time draws is the
// draw order.
func (sp Spec) TimelineFor(r *rng.Source, horizonSec float64, topo *Topo) (Timeline, error) {
	if topo == nil {
		topo = PointTopo(0, 0, 0)
	}
	var tl Timeline
	pair := 0
	draw := func(n, count int, downSec float64, down, up Kind, scope ScopeKind) {
		if n <= 0 {
			return
		}
		for i := 0; i < count; i++ {
			at := simtime.FromSeconds(r.Float64() * horizonSec * 0.9)
			dur := simtime.FromSeconds(downSec * (0.5 + r.Float64()))
			target := r.IntN(n)
			tl.Events = append(tl.Events, Event{At: at, Kind: down, Scope: scope, Target: target, Pair: pair})
			tl.Events = append(tl.Events, Event{At: at + dur, Kind: up, Scope: scope, Target: target, Pair: pair})
			pair++
		}
	}
	draw(topo.Servers, sp.ServerCrashes, sp.ServerDownSec, ServerCrash, ServerRecover, ScopeServer)
	draw(topo.Links, sp.LinkFlaps, sp.LinkDownSec, LinkCut, LinkRestore, ScopeServer)
	draw(topo.Switches, sp.SwitchKills, sp.SwitchDownSec, SwitchFail, SwitchRestore, ScopeServer)
	draw(len(topo.Racks), sp.RackKills, sp.RackDownSec, ScopeDown, ScopeUp, ScopeRack)
	draw(len(topo.Pods), sp.PodKills, sp.PodDownSec, ScopeDown, ScopeUp, ScopePod)
	draw(topo.Switches, sp.SubtreeKills, sp.SubtreeDownSec, ScopeDown, ScopeUp, ScopeSwitch)
	if sp.ServerMTTFSec > 0 && topo.Servers > 0 {
		renew(r.Split("renewal-server"), horizonSec, topo.Servers,
			sp.ServerMTTFSec, sp.ServerMTTRSec, sp.WeibullShape, sp.RepairCrews,
			ServerCrash, ServerRecover, &tl, &pair)
	}
	if sp.SwitchMTTFSec > 0 && topo.Switches > 0 {
		renew(r.Split("renewal-switch"), horizonSec, topo.Switches,
			sp.SwitchMTTFSec, sp.SwitchMTTRSec, sp.WeibullShape, sp.RepairCrews,
			SwitchFail, SwitchRestore, &tl, &pair)
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
			at := simtime.FromSeconds(o.Start)
			tl.Events = append(tl.Events,
				Event{At: at, Kind: ScopeDown, Scope: scope, Target: o.Target, Pair: pair},
				Event{At: at + simtime.FromSeconds(o.Dur), Kind: ScopeUp, Scope: scope, Target: o.Target, Pair: pair})
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
	down, up Kind, tl *Timeline, pair *int) {
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
			Event{At: simtime.FromSeconds(ft), Kind: down, Target: c, Pair: *pair},
			Event{At: simtime.FromSeconds(end), Kind: up, Target: c, Pair: *pair})
		*pair++
		nextFail[c] = end + life.Sample(r)
	}
}

// resolveScope expands a scope instance into server and switch index
// sets (both ascending). ok is false when the target cannot be
// resolved on this farm — the whole event then skips, mirroring the
// point classes' out-of-range handling.
func (inj *Injector) resolveScope(scope ScopeKind, target int) (srvs, sws []int, ok bool) {
	if target < 0 {
		return nil, nil, false
	}
	switch scope {
	case ScopeServer:
		if target >= len(inj.servers) {
			return nil, nil, false
		}
		return []int{target}, nil, true
	case ScopeRack:
		if inj.topo == nil || target >= len(inj.topo.Racks) {
			return nil, nil, false
		}
		if sw := inj.topo.RackSwitch[target]; sw >= 0 {
			sws = []int{sw}
		}
		return inj.topo.Racks[target], sws, true
	case ScopePod:
		if inj.topo == nil || target >= len(inj.topo.Pods) {
			return nil, nil, false
		}
		return inj.topo.Pods[target], inj.topo.PodSwitches[target], true
	case ScopeSwitch:
		if inj.net == nil || target >= len(inj.net.Switches()) {
			return nil, nil, false
		}
		if inj.topo != nil && target < len(inj.topo.AttachedServers) {
			srvs = inj.topo.AttachedServers[target]
		}
		return srvs, []int{target}, true
	}
	return nil, nil, false
}

// applyScopeDown crashes every in-scope component atomically: servers
// first as one scheduler batch (orphan handling runs only after the
// whole blast is down, so no orphan requeues onto a dying sibling),
// then switches, both in ascending index order. Members already down
// skip individually, exactly like overlapping point draws.
func (inj *Injector) applyScopeDown(ev Event, depth int) {
	srvs, sws, ok := inj.resolveScope(ev.Scope, ev.Target)
	if !ok {
		inj.ledger.Skipped++
		return
	}
	inj.cover.Hit(modelcov.FaultKind(int(ev.Kind)))
	inj.cover.Hit(modelcov.ScopeDown(int(ev.Scope)))
	var batch []*server.Server
	first := -1
	for _, s := range srvs {
		if s >= len(inj.servers) || inj.servers[s].Failed() {
			inj.ledger.Skipped++
			continue
		}
		if first < 0 {
			first = s
		}
		batch = append(batch, inj.servers[s])
		inj.srvDownBy[s] = ev.Pair
	}
	if len(batch) > 0 {
		lost, orphans := inj.sch.ServersCrashed(batch)
		inj.ledger.ServerCrashes += int64(len(batch))
		inj.ledger.JobsLostCrash += int64(lost)
		inj.ledger.JobsLostByScope[ev.Scope] += int64(lost)
		inj.ledger.TasksOrphaned += int64(orphans)
		if depth > 0 {
			inj.ledger.CascadeCrashes += int64(len(batch))
			inj.cover.Hit(modelcov.CascadeDepth(depth))
		}
	}
	for _, si := range sws {
		sw := inj.switchAt(si)
		if sw == nil || sw.Failed() {
			inj.ledger.Skipped++
			continue
		}
		// Ownership first, as in apply's single-component cases: killing a
		// switch fails its in-flight transfers, whose callbacks can reach
		// the invariant deep scan while the switch is already down.
		inj.swDownBy[si] = ev.Pair
		if err := inj.net.SetSwitchAdmin(sw.Node(), false); err != nil {
			panic(err) // range-checked in resolveScope
		}
		inj.ledger.SwitchFails++
	}
	if first >= 0 {
		inj.maybeCascade(first, depth)
	}
}

// applyScopeUp restores the scope: switches first so recovered servers
// rejoin a live fabric, then servers as one batch. Pair ownership is
// per member — a member taken down by a different outage stays down.
func (inj *Injector) applyScopeUp(ev Event) {
	srvs, sws, ok := inj.resolveScope(ev.Scope, ev.Target)
	if !ok {
		inj.ledger.Skipped++
		return
	}
	inj.cover.Hit(modelcov.FaultKind(int(ev.Kind)))
	for _, si := range sws {
		sw := inj.switchAt(si)
		if sw == nil || !sw.Failed() || inj.swDownBy[si] != ev.Pair {
			inj.ledger.Skipped++
			continue
		}
		delete(inj.swDownBy, si)
		if err := inj.net.SetSwitchAdmin(sw.Node(), true); err != nil {
			panic(err)
		}
		inj.ledger.SwitchRestores++
	}
	var batch []*server.Server
	for _, s := range srvs {
		if s >= len(inj.servers) || !inj.servers[s].Failed() || inj.srvDownBy[s] != ev.Pair {
			inj.ledger.Skipped++
			continue
		}
		batch = append(batch, inj.servers[s])
		delete(inj.srvDownBy, s)
	}
	if len(batch) > 0 {
		inj.sch.ServersRecovered(batch)
		inj.ledger.ServerRecovers += int64(len(batch))
	}
}

// maybeCascade applies the cascade rule after a crash: each still-alive
// server in the crashed component's pod (the rehoming domain)
// overload-crashes with probability CascadeP, after a delay drawn
// around CascadeDelaySec, recovering after a duration drawn around
// ServerDownSec (CascadeDelaySec when unset). Children carry depth+1
// and stop at CascadeDepth. Draws consume the dedicated cascade stream
// in ascending candidate order, so replay is deterministic.
func (inj *Injector) maybeCascade(crashed, depth int) {
	if inj.cascade == nil || inj.topo == nil || depth >= inj.spec.CascadeDepth ||
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
		delay := simtime.FromSeconds(inj.spec.CascadeDelaySec * (0.5 + inj.cascade.Float64()))
		dur := simtime.FromSeconds(mean * (0.5 + inj.cascade.Float64()))
		pair := inj.nextPair
		inj.nextPair++
		downEv := Event{At: now + delay, Kind: ServerCrash, Target: s, Pair: pair}
		upEv := Event{At: now + delay + dur, Kind: ServerRecover, Target: s, Pair: pair}
		d := depth + 1
		inj.eng.Schedule(downEv.At, func() { inj.apply(downEv, d) })
		inj.eng.Schedule(upEv.At, func() { inj.apply(upEv, d) })
	}
}

// CheckScopes is the scope-consistency invariant hook: ownership and
// component state must agree in both directions (a dead rack implies
// every owned member is still down; nothing is down without an owner),
// and the ledger's per-scope loss attribution must sum back to its
// crash-loss total. Iteration is index-ordered so a violation message
// is deterministic.
func (inj *Injector) CheckScopes() error {
	for s := range inj.servers {
		_, owned := inj.srvDownBy[s]
		if owned && !inj.servers[s].Failed() {
			return fmt.Errorf("server %d owned-down by pair %d but alive", s, inj.srvDownBy[s])
		}
		if !owned && inj.servers[s].Failed() {
			return fmt.Errorf("server %d down without an owning outage", s)
		}
	}
	if inj.net != nil {
		for l := 0; l < inj.net.NumLinks(); l++ {
			_, owned := inj.linkDownBy[l]
			if owned && !inj.net.LinkAdminDown(l) {
				return fmt.Errorf("link %d owned-down but admin-up", l)
			}
			if !owned && inj.net.LinkAdminDown(l) {
				return fmt.Errorf("link %d admin-down without an owning outage", l)
			}
		}
		for i, sw := range inj.net.Switches() {
			_, owned := inj.swDownBy[i]
			if owned && !sw.Failed() {
				return fmt.Errorf("switch %d owned-down but alive", i)
			}
			if !owned && sw.Failed() {
				return fmt.Errorf("switch %d down without an owning outage", i)
			}
		}
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
