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
	swIdx := make(map[NodeID]int, len(switches)) // node -> switch index
	for i, s := range switches {
		swIdx[s] = i
	}
	sm := &ScopeMap{
		RackOf:        make([]int, len(hosts)),
		PodOf:         make([]int, len(hosts)),
		AttachedHosts: make([][]int, len(switches)),
		Level:         make([]int, len(switches)),
	}

	// Attached hosts per switch, and each host's ToR (first switch
	// neighbor in adjacency order).
	tor := make([]int, len(hosts)) // host -> switch index, -1 if none
	for i, h := range hosts {
		tor[i] = -1
		for _, a := range g.Neighbors(h) {
			if j, ok := swIdx[a.Peer]; ok {
				if tor[i] < 0 {
					tor[i] = j
				}
				sm.AttachedHosts[j] = append(sm.AttachedHosts[j], i)
			}
		}
	}

	// Racks: group hosts by ToR in first-seen order, then fallback
	// blocks for switchless hosts.
	rackBySwitch := make(map[int]int)
	var fallback []int
	for i := range hosts {
		if tor[i] < 0 {
			fallback = append(fallback, i)
			continue
		}
		r, ok := rackBySwitch[tor[i]]
		if !ok {
			r = len(sm.RackHosts)
			rackBySwitch[tor[i]] = r
			sm.RackHosts = append(sm.RackHosts, nil)
			sm.RackSwitch = append(sm.RackSwitch, tor[i])
		}
		sm.RackHosts[r] = append(sm.RackHosts[r], i)
		sm.RackOf[i] = r
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
	queue := make([]NodeID, 0, len(hosts))
	for _, h := range hosts {
		level[h] = 0
		queue = append(queue, h)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.Neighbors(u) {
			if level[a.Peer] < 0 {
				level[a.Peer] = level[u] + 1
				queue = append(queue, a.Peer)
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
			for _, a := range g.Neighbors(switches[cur]) {
				k, ok := swIdx[a.Peer]
				if !ok || podOfSwitch[k] >= 0 || !inPodGraph(k) {
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
