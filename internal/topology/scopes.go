package topology

// ScopeMap derives failure-domain groupings — racks, pods, and switch
// subtrees — from a built graph. The correlated-failure engine resolves
// blast-radius fault targets against these groupings, so the derivation
// must be deterministic: every slice is ordered by creation-order index
// and the same graph always yields the same map.
//
// Definitions (chosen to match the physical reading of each named
// architecture without per-builder special cases):
//
//   - rack: the set of hosts sharing their first-listed switch neighbor
//     (the ToR). Hosts with no switch neighbor (server-only fabrics like
//     CamCube) fall back to fixed blocks of FallbackRackSize hosts in
//     creation order — the "hosts that share a PDU" reading.
//   - switch level: minimum hop distance from any host (1 = edge/ToR).
//   - pod: a connected component of the switch subgraph restricted to
//     level <= 2 switches (edge + aggregation). In a fat-tree this is
//     exactly the pod; in a star or flattened butterfly the whole fabric
//     is one pod; in BCube every switch is its own component so pods
//     collapse onto racks. Racks with no switch live in pod 0.
//   - switch subtree: a switch plus the hosts directly attached to it.
//     For an edge switch this is its rack; for aggregation and core
//     switches the subtree is the switch alone (its blast radius is
//     carried by the network model, not by host crashes).
type ScopeMap struct {
	// RackHosts[r] lists host indices (positions in Graph.Hosts order)
	// of rack r, ascending.
	RackHosts [][]int
	// RackSwitch[r] is the switch index (position in Graph.Switches
	// order) of rack r's ToR, or -1 for fallback racks.
	RackSwitch []int
	// RackOf[h] is the rack index of host h.
	RackOf []int
	// PodHosts[p] lists host indices of pod p, ascending.
	PodHosts [][]int
	// PodSwitches[p] lists switch indices of pod p, ascending.
	PodSwitches [][]int
	// PodOf[h] is the pod index of host h.
	PodOf []int
	// AttachedHosts[s] lists host indices directly linked to switch s,
	// ascending — the switch's subtree blast radius.
	AttachedHosts [][]int
	// Level[s] is the minimum hop distance of switch s from any host
	// (1 = edge/ToR), or -1 if no host is reachable.
	Level []int
}

// FallbackRackSize is the rack width assumed for hosts with no switch
// neighbor (server-only fabrics).
const FallbackRackSize = 8

// NewScopeMap derives the failure-domain groupings of g.
func NewScopeMap(g *Graph) *ScopeMap {
	hosts := g.Hosts()
	switches := g.Switches()
	swIdx := make([]int, g.NumNodes()) // node -> switch index, -1 for hosts
	for i := range swIdx {
		swIdx[i] = -1
	}
	for i, s := range switches {
		swIdx[s] = i
	}
	sm := &ScopeMap{
		RackOf: make([]int, len(hosts)),
		PodOf:  make([]int, len(hosts)),
		Level:  make([]int, len(switches)),
	}

	// Each host's ToR (first switch neighbor in adjacency order), and
	// the number of hosts attached to each switch.
	tor := make([]int, len(hosts))         // host -> switch index, -1 if none
	attached := make([]int, len(switches)) // switch -> attached hosts
	for i, h := range hosts {
		tor[i] = -1
		for _, a := range g.neighbors(h) {
			if j := swIdx[a.peer]; j >= 0 {
				if tor[i] < 0 {
					tor[i] = j
				}
				attached[j]++
			}
		}
	}
	sm.AttachedHosts = carveRows(attached)
	for i, h := range hosts {
		for _, a := range g.neighbors(h) {
			if j := swIdx[a.peer]; j >= 0 {
				sm.AttachedHosts[j] = append(sm.AttachedHosts[j], i)
			}
		}
	}

	// Racks: group hosts by ToR in first-seen order, then fallback
	// blocks for switchless hosts.
	rackBySwitch := make([]int, len(switches)) // switch -> rack index + 1, 0 if none yet
	var rackSize []int
	var fallback []int
	for i := range hosts {
		if tor[i] < 0 {
			fallback = append(fallback, i)
			continue
		}
		r := rackBySwitch[tor[i]] - 1
		if r < 0 {
			r = len(sm.RackSwitch)
			rackBySwitch[tor[i]] = r + 1
			sm.RackSwitch = append(sm.RackSwitch, tor[i])
			rackSize = append(rackSize, 0)
		}
		rackSize[r]++
		sm.RackOf[i] = r
	}
	sm.RackHosts = carveRows(rackSize)
	for i := range hosts {
		if tor[i] >= 0 {
			r := sm.RackOf[i]
			sm.RackHosts[r] = append(sm.RackHosts[r], i)
		}
	}
	for len(fallback) > 0 {
		n := FallbackRackSize
		if n > len(fallback) {
			n = len(fallback)
		}
		r := len(sm.RackHosts)
		sm.RackHosts = append(sm.RackHosts, fallback[:n:n])
		sm.RackSwitch = append(sm.RackSwitch, -1)
		for _, h := range fallback[:n] {
			sm.RackOf[h] = r
		}
		fallback = fallback[n:]
	}

	// Switch levels: multi-source BFS from all hosts at distance 0.
	level := make([]int, g.NumNodes())
	for i := range level {
		level[i] = -1
	}
	queue := make([]NodeID, 0, g.NumNodes())
	for _, h := range hosts {
		level[h] = 0
		queue = append(queue, h)
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range g.neighbors(u) {
			if level[a.peer] < 0 {
				level[a.peer] = level[u] + 1
				queue = append(queue, NodeID(a.peer))
			}
		}
	}
	for j, s := range switches {
		sm.Level[j] = level[s]
	}

	// Pods: connected components of the level<=2 switch subgraph
	// (switch-switch links only), numbered in ascending-switch order.
	podOfSwitch := make([]int, len(switches))
	for j := range podOfSwitch {
		podOfSwitch[j] = -1
	}
	inPodGraph := func(j int) bool { return sm.Level[j] >= 1 && sm.Level[j] <= 2 }
	for j := range switches {
		if podOfSwitch[j] >= 0 || !inPodGraph(j) {
			continue
		}
		p := len(sm.PodSwitches)
		sm.PodSwitches = append(sm.PodSwitches, nil)
		stack := []int{j}
		podOfSwitch[j] = p
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sm.PodSwitches[p] = append(sm.PodSwitches[p], cur)
			for _, a := range g.neighbors(switches[cur]) {
				k := swIdx[a.peer]
				if k < 0 || podOfSwitch[k] >= 0 || !inPodGraph(k) {
					continue
				}
				podOfSwitch[k] = p
				stack = append(stack, k)
			}
		}
		sortInts(sm.PodSwitches[p])
	}
	if len(sm.PodSwitches) == 0 {
		// No switches at all: one pod holding everything.
		sm.PodSwitches = append(sm.PodSwitches, nil)
	}
	sm.PodHosts = make([][]int, len(sm.PodSwitches))
	for r, hs := range sm.RackHosts {
		p := 0
		if sw := sm.RackSwitch[r]; sw >= 0 && podOfSwitch[sw] >= 0 {
			p = podOfSwitch[sw]
		}
		for _, h := range hs {
			sm.PodOf[h] = p
			sm.PodHosts[p] = append(sm.PodHosts[p], h)
		}
	}
	for p := range sm.PodHosts {
		sortInts(sm.PodHosts[p])
	}
	return sm
}

// carveRows returns one row per count, carved from a single backing
// array: row i is empty with capacity counts[i] (nil when that is 0), so
// appending each row's members fills it in place.
func carveRows(counts []int) [][]int {
	total := 0
	for _, c := range counts {
		total += c
	}
	backing := make([]int, total)
	rows := make([][]int, len(counts))
	off := 0
	for i, c := range counts {
		if c > 0 {
			rows[i] = backing[off : off : off+c]
			off += c
		}
	}
	return rows
}

// NumRacks reports the rack count.
func (sm *ScopeMap) NumRacks() int { return len(sm.RackHosts) }

func sortInts(a []int) {
	// Insertion sort: scope slices are small and this avoids an import.
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
