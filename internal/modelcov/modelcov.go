// Package modelcov is a fixed-size model-state coverage map: a counter
// table over semantic features of a simulation run (sleep-state
// transitions, queue-depth buckets, drop sites, fault kinds by scope,
// cascade depths, orphan-policy branches, network terminal paths,
// placer paths). It is the signal behind scenario coverage search
// (internal/scenario.Search, cmd/covsearch): an input that lights a
// feature no prior input reached earns a corpus slot.
//
// The package is dependency-free and every recording method is safe on
// a nil *Map, so instrumented packages call m.Hit(...) unconditionally
// and a disabled run (core.Config.Cover == nil) costs one nil check per
// event at most. Counters saturate instead of wrapping so "hit count"
// comparisons stay monotone on arbitrarily long runs.
package modelcov

import (
	"fmt"
	"strings"
)

// Feature indexes one slot of the coverage table. Features are grouped
// in fixed blocks; the block layout is append-only (new features go at
// the end) so corpus entries minimized against an older table remain
// meaningful.
type Feature int

// NumSrvStates is the number of server residency states
// (internal/server State* labels; see srvStateNames).
const NumSrvStates = 7

// Block layout. Each base is the first Feature of its block.
const (
	// Server residency transitions, from*NumSrvStates+to.
	featSrvTrans Feature = 0

	// Dispatch-time pending-queue depth buckets (see DepthBucket).
	featQueueDepth = featSrvTrans + NumSrvStates*NumSrvStates

	// Global-queue length buckets at park time.
	featGlobalQDepth = featQueueDepth + numDepthBuckets

	// Packet/flow drop sites.
	featDrop = featGlobalQDepth + numDepthBuckets
)

// Drop-site features (network package).
const (
	DropEnqueueLinkDown Feature = featDrop + iota // enqueue on an admin-down/dead-end link
	DropEnqueueOverflow                           // egress ring full
	DropOnWireLinkDown                            // link died while the packet serialized
	DropArriveLinkDown                            // link died during propagation
	DropSweep                                     // dropAll teardown sweep
	DropFluidKill                                 // fluid flow killed by link/switch death
	numDropSites        = 6
)

// Fault kinds applied by the injector, by fault.Kind order
// (ServerCrash..ScopeUp), plus scope-down events by topology scope
// (fault.ScopeKind order: Server, Rack, Pod, Switch).
const (
	featFaultKind Feature = featDrop + numDropSites
	numFaultKinds         = 8
	featScopeDown         = featFaultKind + numFaultKinds
	numScopeKinds         = 4
)

// Scheduler / orphan-policy branches.
const (
	SchedOrphanRequeue Feature = featScopeDown + numScopeKinds + iota // crash orphans re-admitted
	SchedOrphanPark                                                   // unplaceable task parked awaiting recovery
	SchedDropCrash                                                    // job killed: orphaned by server crash, policy Drop
	SchedDropNoAlive                                                  // job killed: no alive server, policy Drop
	SchedParkedDrain                                                  // parked tasks drained on recovery
	SchedStaticReplace                                                // static placement redirected off a failed server
	SchedDeferredPlace                                                // deferred placement retried a task
	numSchedBranches   = 7
)

// Cascade depth buckets: 1, 2, >=3.
const (
	CascadeDepth1 Feature = SchedOrphanRequeue + numSchedBranches + iota
	CascadeDepth2
	CascadeDepth3Plus
	numCascadeDepths = 3
)

// Network terminal paths: how a transfer's packets/flows end, split by
// model so a fluid-mode run and a packet-mode run light different
// features even on identical scenarios.
const (
	NetPktDelivered  Feature = CascadeDepth1 + numCascadeDepths + iota // packet reached its destination host
	NetPktLoopback                                                     // same-host transfer short-circuited
	NetFluidComplete                                                   // fluid flow drained to completion
	NetFluidFailed                                                     // fluid flow torn down by failure
	NetFlowComplete                                                    // flow-comm transfer completed
	NetFlowFailed                                                      // flow-comm transfer torn down by failure
	NetFlowDeadStart                                                   // route already dead at flow start
	numNetTerminals  = 7
)

// Placer / queue-mode paths.
const (
	PlaceFastPath      Feature = NetPktDelivered + numNetTerminals + iota // candidate set taken whole (no servers down)
	PlaceFiltered                                                         // candidate set filtered for alive servers
	PlaceAllDown                                                          // every candidate down: AllDownError path
	PlaceFallback                                                         // placer returned a failed server; fell back
	PlaceGlobalQDirect                                                    // global queue: dispatched without parking
	PlaceGlobalQPark                                                      // global queue: job parked
	PlaceGlobalQDrain                                                     // global queue drained a parked job
	numPlacePaths      = 7
)

// Switch / link power paths.
const (
	SwitchSleep    Feature = PlaceFastPath + numPlacePaths + iota // switch entered sleep
	SwitchWake                                                    // sleeping switch woken by traffic
	PortLPIEnter                                                  // port entered low-power idle
	PortLPIWake                                                   // LPI exit charged a wake penalty
	numSwitchPaths = 4
)

// NumFeatures is the size of the coverage table.
const NumFeatures = int(SwitchSleep) + numSwitchPaths

// srvStateNames mirrors internal/server's State* residency labels.
// modelcov cannot import server (server imports modelcov), so the
// mapping is duplicated here and pinned by a test in internal/server.
var srvStateNames = [NumSrvStates]string{
	"Active", "Wake-up", "Idle", "PkgC6", "SysSleep", "Off", "Down",
}

// SrvTransition is the feature for a residency transition from state
// index `from` to `to` (srvStateNames order). Out-of-range indices
// yield an invalid feature, which Hit ignores.
func SrvTransition(from, to int) Feature {
	if from < 0 || from >= NumSrvStates || to < 0 || to >= NumSrvStates {
		return Feature(-1)
	}
	return featSrvTrans + Feature(from*NumSrvStates+to)
}

// numDepthBuckets buckets: 0, 1, 2, 3-4, 5-8, 9-16, 17-32, 33+.
const numDepthBuckets = 8

func depthBucket(n int) Feature {
	switch {
	case n <= 0:
		return 0
	case n == 1:
		return 1
	case n == 2:
		return 2
	case n <= 4:
		return 3
	case n <= 8:
		return 4
	case n <= 16:
		return 5
	case n <= 32:
		return 6
	default:
		return 7
	}
}

var depthBucketNames = [numDepthBuckets]string{"0", "1", "2", "3-4", "5-8", "9-16", "17-32", "33+"}

// QueueDepth is the feature for a server pending-queue depth observed
// at dispatch time.
func QueueDepth(n int) Feature { return featQueueDepth + depthBucket(n) }

// GlobalQueueDepth is the feature for the global-queue length observed
// when a job parks.
func GlobalQueueDepth(n int) Feature { return featGlobalQDepth + depthBucket(n) }

// FaultKind is the feature for an applied fault event of the given
// fault.Kind ordinal. Out-of-range ordinals yield an invalid feature.
func FaultKind(kind int) Feature {
	if kind < 0 || kind >= numFaultKinds {
		return Feature(-1)
	}
	return featFaultKind + Feature(kind)
}

// ScopeDown is the feature for a correlated scope-down event of the
// given fault.ScopeKind ordinal.
func ScopeDown(scope int) Feature {
	if scope < 0 || scope >= numScopeKinds {
		return Feature(-1)
	}
	return featScopeDown + Feature(scope)
}

// CascadeDepth is the feature for a cascade-triggered fault at the
// given depth (>= 1).
func CascadeDepth(depth int) Feature {
	switch {
	case depth <= 0:
		return Feature(-1)
	case depth == 1:
		return CascadeDepth1
	case depth == 2:
		return CascadeDepth2
	default:
		return CascadeDepth3Plus
	}
}

var faultKindNames = [numFaultKinds]string{
	"server-crash", "server-recover", "link-down", "link-up",
	"switch-down", "switch-up", "scope-down", "scope-up",
}

var scopeKindNames = [numScopeKinds]string{"server", "rack", "pod", "switch"}

var singleNames = map[Feature]string{
	DropEnqueueLinkDown: "drop/enqueue-link-down",
	DropEnqueueOverflow: "drop/enqueue-overflow",
	DropOnWireLinkDown:  "drop/on-wire-link-down",
	DropArriveLinkDown:  "drop/arrive-link-down",
	DropSweep:           "drop/teardown-sweep",
	DropFluidKill:       "drop/fluid-kill",
	SchedOrphanRequeue:  "sched/orphan-requeue",
	SchedOrphanPark:     "sched/orphan-park",
	SchedDropCrash:      "sched/drop-server-crash",
	SchedDropNoAlive:    "sched/drop-no-alive-server",
	SchedParkedDrain:    "sched/parked-drain",
	SchedStaticReplace:  "sched/static-replace",
	SchedDeferredPlace:  "sched/deferred-place",
	CascadeDepth1:       "cascade/depth-1",
	CascadeDepth2:       "cascade/depth-2",
	CascadeDepth3Plus:   "cascade/depth-3+",
	NetPktDelivered:     "net/packet-delivered",
	NetPktLoopback:      "net/packet-loopback",
	NetFluidComplete:    "net/fluid-complete",
	NetFluidFailed:      "net/fluid-failed",
	NetFlowComplete:     "net/flow-complete",
	NetFlowFailed:       "net/flow-failed",
	NetFlowDeadStart:    "net/flow-dead-at-start",
	PlaceFastPath:       "place/fast-path",
	PlaceFiltered:       "place/alive-filtered",
	PlaceAllDown:        "place/all-down",
	PlaceFallback:       "place/placer-fallback",
	PlaceGlobalQDirect:  "place/globalq-direct",
	PlaceGlobalQPark:    "place/globalq-park",
	PlaceGlobalQDrain:   "place/globalq-drain",
	SwitchSleep:         "switch/sleep",
	SwitchWake:          "switch/wake",
	PortLPIEnter:        "switch/port-lpi",
	PortLPIWake:         "switch/port-lpi-wake-penalty",
}

// Name renders a feature as a stable human-readable label.
func Name(f Feature) string {
	switch {
	case f < 0 || int(f) >= NumFeatures:
		return fmt.Sprintf("invalid(%d)", int(f))
	case f >= featSrvTrans && f < featQueueDepth:
		i := int(f - featSrvTrans)
		return "srv/" + srvStateNames[i/NumSrvStates] + "->" + srvStateNames[i%NumSrvStates]
	case f >= featQueueDepth && f < featGlobalQDepth:
		return "queue/depth-" + depthBucketNames[f-featQueueDepth]
	case f >= featGlobalQDepth && f < featDrop:
		return "queue/global-depth-" + depthBucketNames[f-featGlobalQDepth]
	case f >= featFaultKind && f < featScopeDown:
		return "fault/" + faultKindNames[f-featFaultKind]
	case f >= featScopeDown && f < SchedOrphanRequeue:
		return "fault/scope-down-" + scopeKindNames[f-featScopeDown]
	default:
		return singleNames[f]
	}
}

// Map is a fixed-size coverage counter table. The zero value is ready
// to use. All methods are nil-receiver safe; recording methods on a nil
// map are no-ops, queries on a nil map report zero coverage.
type Map struct {
	counts [NumFeatures]uint32
}

// Hit increments the counter for f, saturating at the uint32 ceiling.
// Invalid features and nil maps are ignored.
func (m *Map) Hit(f Feature) {
	if m == nil || f < 0 || int(f) >= NumFeatures {
		return
	}
	if m.counts[f] != ^uint32(0) {
		m.counts[f]++
	}
}

// Count reports the hit count for f.
func (m *Map) Count(f Feature) uint32 {
	if m == nil || f < 0 || int(f) >= NumFeatures {
		return 0
	}
	return m.counts[f]
}

// Covered reports how many features have been hit at least once.
func (m *Map) Covered() int {
	if m == nil {
		return 0
	}
	n := 0
	for _, c := range m.counts {
		if c != 0 {
			n++
		}
	}
	return n
}

// Total reports the table size (NumFeatures), for hit/total reports.
func (m *Map) Total() int { return NumFeatures }

// Score reports the map's total coverage mass: the sum of every
// feature's Bucket class. Covered counts how *many* features were
// reached; Score also credits how *hard* each was driven (one point
// per power of two in the peak count), so it keeps discriminating
// between campaigns long after plain feature coverage saturates.
func (m *Map) Score() int {
	if m == nil {
		return 0
	}
	s := 0
	for _, c := range m.counts {
		s += Bucket(c)
	}
	return s
}

// Bucket maps a hit count to a coarse magnitude class: 0, then one
// class per power of two (1, 2–3, 4–7, 8–15, ...). Coverage campaigns
// compare runs by class, not raw count, so "hit this feature an order
// of magnitude harder than ever before" registers as progress long
// after the first hit — binary coverage alone saturates in a few dozen
// executions and leaves a search nothing left to admit.
func Bucket(c uint32) int {
	b := 0
	for c > 0 {
		b++
		c >>= 1
	}
	return b
}

// Merge folds o into m (per-feature maximum) and returns the coverage
// gain: the number of features where o's count reaches a higher Bucket
// class than m had. A first hit is always a gain; so is a new
// magnitude record on an already-covered feature. After merging, m
// holds each feature's peak single-map count, so a campaign's merged
// map answers both "was it reached" (Covered) and "how hard was it
// driven in one run" (Count). A nil o contributes nothing; merging
// into a nil m reports no gain.
func (m *Map) Merge(o *Map) int {
	if m == nil || o == nil {
		return 0
	}
	gain := 0
	for i, c := range o.counts {
		if c == 0 {
			continue
		}
		if Bucket(c) > Bucket(m.counts[i]) {
			gain++
		}
		if c > m.counts[i] {
			m.counts[i] = c
		}
	}
	return gain
}

// NeverHit lists the features with a zero counter, in table order.
func (m *Map) NeverHit() []Feature {
	var out []Feature
	for i := 0; i < NumFeatures; i++ {
		if m.Count(Feature(i)) == 0 {
			out = append(out, Feature(i))
		}
	}
	return out
}

// Report renders a human-readable coverage summary: the hit/total
// ratio and up to `top` never-hit features (0 means all).
func (m *Map) Report(top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "model coverage: %d/%d features\n", m.Covered(), m.Total())
	never := m.NeverHit()
	if top > 0 && len(never) > top {
		fmt.Fprintf(&b, "never hit (%d total, first %d):\n", len(never), top)
		never = never[:top]
	} else if len(never) > 0 {
		fmt.Fprintf(&b, "never hit (%d):\n", len(never))
	}
	for _, f := range never {
		fmt.Fprintf(&b, "  %s\n", Name(f))
	}
	return b.String()
}
