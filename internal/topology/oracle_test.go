package topology

import (
	"fmt"
)

// This file keeps the append-based graph, its builders and the scope
// map working as they did before the graph moved to compressed rows,
// a name arena and lazy cache invalidation. The oracle tests
// (graph_test.go) hold the production graph to it: same nodes, names,
// link order, per-node adjacency order, hop counts, paths and scopes.

type oracleNode struct {
	ID   NodeID
	Kind Kind
	Name string
}

type oracleAdj struct {
	link int
	peer NodeID
}

type oracleGraph struct {
	AllowHostTransit bool

	nodes []oracleNode
	links []Link
	adj   [][]oracleAdj
	dist  map[NodeID][]int32
}

func newOracleGraph(allowHostTransit bool) *oracleGraph {
	return &oracleGraph{AllowHostTransit: allowHostTransit, dist: make(map[NodeID][]int32)}
}

func (g *oracleGraph) AddNode(kind Kind, name string) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, oracleNode{ID: id, Kind: kind, Name: name})
	g.adj = append(g.adj, nil)
	return id
}

func (g *oracleGraph) AddLink(a, b NodeID, rateBps float64) (int, error) {
	if a == b {
		return 0, fmt.Errorf("topology: self-loop on node %d", a)
	}
	if a < 0 || int(a) >= len(g.nodes) || b < 0 || int(b) >= len(g.nodes) {
		return 0, fmt.Errorf("topology: link endpoints %d-%d out of range", a, b)
	}
	if rateBps <= 0 {
		return 0, fmt.Errorf("topology: non-positive link rate %g", rateBps)
	}
	id := len(g.links)
	g.links = append(g.links, Link{A: a, B: b, RateBps: rateBps})
	g.adj[a] = append(g.adj[a], oracleAdj{link: id, peer: b})
	g.adj[b] = append(g.adj[b], oracleAdj{link: id, peer: a})
	g.dist = make(map[NodeID][]int32)
	return id, nil
}

func (g *oracleGraph) Hosts() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
}

func (g *oracleGraph) Switches() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Switch {
			out = append(out, n.ID)
		}
	}
	return out
}

func (g *oracleGraph) distTo(dst NodeID) []int32 {
	if d, ok := g.dist[dst]; ok {
		return d
	}
	d := make([]int32, len(g.nodes))
	for i := range d {
		d[i] = -1
	}
	d[dst] = 0
	queue := []NodeID{dst}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if u != dst && g.nodes[u].Kind == Host && !g.AllowHostTransit {
			continue
		}
		for _, a := range g.adj[u] {
			if d[a.peer] == -1 {
				d[a.peer] = d[u] + 1
				queue = append(queue, a.peer)
			}
		}
	}
	g.dist[dst] = d
	return d
}

func (g *oracleGraph) HopCount(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	return int(g.distTo(dst)[src])
}

func (g *oracleGraph) Path(src, dst NodeID, ecmpKey uint64) ([]NodeID, []int, error) {
	if src < 0 || int(src) >= len(g.nodes) || dst < 0 || int(dst) >= len(g.nodes) {
		return nil, nil, fmt.Errorf("topology: path endpoints %d-%d out of range", src, dst)
	}
	if src == dst {
		return []NodeID{src}, nil, nil
	}
	dist := g.distTo(dst)
	if dist[src] < 0 {
		return nil, nil, fmt.Errorf("topology: no path from %d to %d", src, dst)
	}
	nodes := []NodeID{src}
	var links []int
	cur := src
	for cur != dst {
		var candidates []oracleAdj
		for _, a := range g.adj[cur] {
			if dist[a.peer] == dist[cur]-1 {
				if a.peer == dst || g.nodes[a.peer].Kind == Switch || g.AllowHostTransit {
					candidates = append(candidates, a)
				}
			}
		}
		if len(candidates) == 0 {
			return nil, nil, fmt.Errorf("topology: routing stuck at node %d toward %d", cur, dst)
		}
		pick := candidates[0]
		if ecmpKey != 0 && len(candidates) > 1 {
			h := ecmpKey
			h ^= uint64(cur) * 0x9e3779b97f4a7c15
			h ^= h >> 29
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 32
			pick = candidates[h%uint64(len(candidates))]
		}
		links = append(links, pick.link)
		nodes = append(nodes, pick.peer)
		cur = pick.peer
	}
	return nodes, links, nil
}

// oracleBuild builds t the way its Build did before the rewrite.
func oracleBuild(t Topology) *oracleGraph {
	switch t := t.(type) {
	case Star:
		return oracleStar(t)
	case FatTree:
		return oracleFatTree(t)
	case BCube:
		return oracleBCube(t)
	case CamCube:
		return oracleCamCube(t)
	case FlattenedButterfly:
		return oracleFlattenedButterfly(t)
	}
	panic("unknown topology " + t.Name())
}

func must(_ int, err error) {
	if err != nil {
		panic(err)
	}
}

func oracleStar(s Star) *oracleGraph {
	rate := s.RateBps
	if rate <= 0 {
		rate = 1e9
	}
	g := newOracleGraph(false)
	sw := g.AddNode(Switch, "sw0")
	for i := 0; i < s.Hosts; i++ {
		h := g.AddNode(Host, fmt.Sprintf("h%d", i))
		must(g.AddLink(h, sw, rate))
	}
	return g
}

func oracleFatTree(f FatTree) *oracleGraph {
	k := f.K
	rate := f.RateBps
	if rate <= 0 {
		rate = 10e9
	}
	g := newOracleGraph(false)
	half := k / 2
	hosts := make([]NodeID, 0, f.NumHosts())
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				hosts = append(hosts, g.AddNode(Host, fmt.Sprintf("p%d-e%d-h%d", pod, e, h)))
			}
		}
	}
	core := make([][]NodeID, half)
	for i := 0; i < half; i++ {
		core[i] = make([]NodeID, half)
		for j := 0; j < half; j++ {
			core[i][j] = g.AddNode(Switch, fmt.Sprintf("core-%d-%d", i, j))
		}
	}
	for pod := 0; pod < k; pod++ {
		aggs := make([]NodeID, half)
		edges := make([]NodeID, half)
		for i := 0; i < half; i++ {
			aggs[i] = g.AddNode(Switch, fmt.Sprintf("p%d-agg%d", pod, i))
			edges[i] = g.AddNode(Switch, fmt.Sprintf("p%d-edge%d", pod, i))
		}
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				must(g.AddLink(hosts[pod*half*half+e*half+h], edges[e], rate))
			}
		}
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				must(g.AddLink(edges[e], aggs[a], rate))
			}
		}
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				must(g.AddLink(aggs[a], core[a][j], rate))
			}
		}
	}
	return g
}

func oracleBCube(b BCube) *oracleGraph {
	rate := b.RateBps
	if rate <= 0 {
		rate = 1e9
	}
	g := newOracleGraph(true)
	nHosts := b.NumHosts()
	hosts := make([]NodeID, nHosts)
	for i := 0; i < nHosts; i++ {
		hosts[i] = g.AddNode(Host, fmt.Sprintf("h%d", i))
	}
	nPerLevel := nHosts / b.N
	stride := 1
	for l := 0; l <= b.K; l++ {
		for s := 0; s < nPerLevel; s++ {
			sw := g.AddNode(Switch, fmt.Sprintf("l%d-s%d", l, s))
			base := (s/stride)*stride*b.N + s%stride
			for d := 0; d < b.N; d++ {
				must(g.AddLink(hosts[base+d*stride], sw, rate))
			}
		}
		stride *= b.N
	}
	return g
}

func oracleCamCube(c CamCube) *oracleGraph {
	rate := c.RateBps
	if rate <= 0 {
		rate = 1e9
	}
	g := newOracleGraph(true)
	id := func(x, y, z int) NodeID { return NodeID(x*c.Y*c.Z + y*c.Z + z) }
	for x := 0; x < c.X; x++ {
		for y := 0; y < c.Y; y++ {
			for z := 0; z < c.Z; z++ {
				g.AddNode(Host, fmt.Sprintf("h%d-%d-%d", x, y, z))
			}
		}
	}
	for x := 0; x < c.X; x++ {
		for y := 0; y < c.Y; y++ {
			for z := 0; z < c.Z; z++ {
				if c.X > 2 || x == 0 {
					must(g.AddLink(id(x, y, z), id((x+1)%c.X, y, z), rate))
				}
				if c.Y > 2 || y == 0 {
					must(g.AddLink(id(x, y, z), id(x, (y+1)%c.Y, z), rate))
				}
				if c.Z > 2 || z == 0 {
					must(g.AddLink(id(x, y, z), id(x, y, (z+1)%c.Z), rate))
				}
			}
		}
	}
	return g
}

func oracleFlattenedButterfly(f FlattenedButterfly) *oracleGraph {
	rate := f.RateBps
	if rate <= 0 {
		rate = 10e9
	}
	g := newOracleGraph(false)
	routers := make([][]NodeID, f.Rows)
	hostOf := make(map[[3]int]NodeID)
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			for h := 0; h < f.Concentration; h++ {
				hostOf[[3]int{r, c, h}] = g.AddNode(Host, fmt.Sprintf("r%d-c%d-h%d", r, c, h))
			}
		}
	}
	for r := 0; r < f.Rows; r++ {
		routers[r] = make([]NodeID, f.Cols)
		for c := 0; c < f.Cols; c++ {
			routers[r][c] = g.AddNode(Switch, fmt.Sprintf("rt-%d-%d", r, c))
			for h := 0; h < f.Concentration; h++ {
				must(g.AddLink(hostOf[[3]int{r, c, h}], routers[r][c], rate))
			}
		}
	}
	for r := 0; r < f.Rows; r++ {
		for c1 := 0; c1 < f.Cols; c1++ {
			for c2 := c1 + 1; c2 < f.Cols; c2++ {
				must(g.AddLink(routers[r][c1], routers[r][c2], rate))
			}
		}
	}
	for c := 0; c < f.Cols; c++ {
		for r1 := 0; r1 < f.Rows; r1++ {
			for r2 := r1 + 1; r2 < f.Rows; r2++ {
				must(g.AddLink(routers[r1][c], routers[r2][c], rate))
			}
		}
	}
	return g
}

// oracleScopeMap is NewScopeMap as it was, over the oracle graph.
func oracleScopeMap(g *oracleGraph) *ScopeMap {
	hosts := g.Hosts()
	switches := g.Switches()
	swIdx := make(map[NodeID]int, len(switches))
	for i, s := range switches {
		swIdx[s] = i
	}
	sm := &ScopeMap{
		RackOf:        make([]int, len(hosts)),
		PodOf:         make([]int, len(hosts)),
		AttachedHosts: make([][]int, len(switches)),
		Level:         make([]int, len(switches)),
	}
	tor := make([]int, len(hosts))
	for i, h := range hosts {
		tor[i] = -1
		for _, a := range g.adj[h] {
			if j, ok := swIdx[a.peer]; ok {
				if tor[i] < 0 {
					tor[i] = j
				}
				sm.AttachedHosts[j] = append(sm.AttachedHosts[j], i)
			}
		}
	}
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
		n := min(FallbackRackSize, len(fallback))
		r := len(sm.RackHosts)
		sm.RackHosts = append(sm.RackHosts, fallback[:n:n])
		sm.RackSwitch = append(sm.RackSwitch, -1)
		for _, h := range fallback[:n] {
			sm.RackOf[h] = r
		}
		fallback = fallback[n:]
	}
	level := make([]int, len(g.nodes))
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
		for _, a := range g.adj[u] {
			if level[a.peer] < 0 {
				level[a.peer] = level[u] + 1
				queue = append(queue, a.peer)
			}
		}
	}
	for j, s := range switches {
		sm.Level[j] = level[s]
	}
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
			for _, a := range g.adj[switches[cur]] {
				k, ok := swIdx[a.peer]
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
