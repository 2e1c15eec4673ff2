// Package topology implements HolDCSim's network topology substrate
// (paper Sec. III-B): a node/link graph with shortest-path routing and
// deterministic ECMP, plus builders for the paper's named architectures —
// fat-tree and flattened butterfly (switch-only), CamCube (server-only),
// BCube (hybrid), and the star used in the switch validation.
package topology

import (
	"fmt"
	"math"
	"strconv"
)

// NodeID identifies a node (host or switch) within one graph.
type NodeID int

// Kind distinguishes end hosts from switching elements.
type Kind int

// Node kinds.
const (
	Host Kind = iota
	Switch
)

// Link is one bidirectional edge with a symmetric rate. Its ID, which
// AddLink returns and Graph.Link takes, is its index in the graph.
type Link struct {
	A, B    NodeID
	RateBps float64
}

// node is a vertex as the graph stores it: its name is names[end of the
// previous node's name : nameEnd].
type node struct {
	kind    Kind
	nameEnd int32
}

// adjacency is one link end as the node it is attached to sees it.
type adjacency struct {
	link int32
	peer int32
}

// Graph is a static topology: nodes, links, and routing state.
// AllowHostTransit enables forwarding through host nodes, required by
// server-only (CamCube) and hybrid (BCube) architectures.
//
// Storage is per graph, not per node or link (DESIGN.md Sec. 13.7):
// node names share one byte arena, and the adjacency is laid out on
// first use as compressed rows, node n's link ends at
// adj[adjOff[n]:adjOff[n+1]] in link order — the order links were
// added in. Adding a node or link drops the layout and the route cache.
type Graph struct {
	AllowHostTransit bool

	nodes []node
	names []byte
	links []Link

	adjOff []int32 // nil until laid out
	adj    []adjacency

	// dist caches BFS hop counts per destination (lazy); bfs is the
	// search queue, reused.
	dist map[NodeID][]int32
	bfs  []NodeID
}

// NewGraph returns an empty graph.
func NewGraph(allowHostTransit bool) *Graph {
	return &Graph{AllowHostTransit: allowHostTransit}
}

// nameBytesPerNode sizes a builder's name arena: every family's names
// fit it up to three-digit indices.
const nameBytesPerNode = 12

// newGraph returns an empty graph with room for nodes nodes and links
// links, so a builder that knows its counts grows nothing.
func newGraph(allowHostTransit bool, nodes, links int) *Graph {
	g := NewGraph(allowHostTransit)
	g.nodes = make([]node, 0, nodes)
	g.names = make([]byte, 0, nodes*nameBytesPerNode)
	g.links = make([]Link, 0, links)
	return g
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(kind Kind, name string) NodeID {
	g.names = append(g.names, name...)
	return g.endNode(kind)
}

// part appends prefix and then i in decimal to the name of the node
// being built; endNode adds the node. Builders name nodes this way,
// with no string per node.
func (g *Graph) part(prefix string, i int) *Graph {
	g.names = strconv.AppendInt(append(g.names, prefix...), int64(i), 10)
	return g
}

// endNode appends a node named by everything added to the name arena
// since the previous node, and returns its ID.
func (g *Graph) endNode(kind Kind) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, node{kind: kind, nameEnd: int32(len(g.names))})
	g.invalidate()
	return id
}

// AddLink connects a and b at rateBps and returns the link ID. Self-loops
// and out-of-range nodes are errors.
func (g *Graph) AddLink(a, b NodeID, rateBps float64) (int, error) {
	if a == b {
		return 0, fmt.Errorf("topology: self-loop on node %d", a)
	}
	if !g.valid(a) || !g.valid(b) {
		return 0, fmt.Errorf("topology: link endpoints %d-%d out of range", a, b)
	}
	if rateBps <= 0 {
		return 0, fmt.Errorf("topology: non-positive link rate %g", rateBps)
	}
	if len(g.links) == math.MaxInt32 { // adjacency holds link IDs as int32
		return 0, fmt.Errorf("topology: more than %d links", math.MaxInt32)
	}
	id := len(g.links)
	g.links = append(g.links, Link{A: a, B: b, RateBps: rateBps})
	g.invalidate()
	return id, nil
}

// invalidate drops the adjacency layout and the route cache, touching
// neither when there is nothing to drop.
func (g *Graph) invalidate() {
	g.adjOff = nil
	if len(g.dist) > 0 {
		clear(g.dist)
	}
}

// neighbors returns n's link ends in link order, in place.
func (g *Graph) neighbors(n NodeID) []adjacency {
	if len(g.adjOff) == 0 {
		g.layOut()
	}
	return g.adj[g.adjOff[n]:g.adjOff[n+1]]
}

// layOut builds the compressed adjacency rows: count each node's link
// ends, turn the counts into row starts, then place the ends in link
// order, which leaves every start advanced to the next row's start.
func (g *Graph) layOut() {
	off := make([]int32, len(g.nodes)+1)
	for _, l := range g.links {
		off[l.A]++
		off[l.B]++
	}
	var sum int32
	for i, c := range off {
		off[i] = sum
		sum += c
	}
	adj := make([]adjacency, sum)
	for id, l := range g.links {
		adj[off[l.A]] = adjacency{link: int32(id), peer: int32(l.B)}
		off[l.A]++
		adj[off[l.B]] = adjacency{link: int32(id), peer: int32(l.A)}
		off[l.B]++
	}
	copy(off[1:], off[:len(g.nodes)])
	off[0] = 0
	g.adjOff, g.adj = off, adj
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks reports the link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// Name returns a node's name, copied out of the arena.
func (g *Graph) Name(id NodeID) string {
	start := int32(0)
	if id > 0 {
		start = g.nodes[id-1].nameEnd
	}
	return string(g.names[start:g.nodes[id].nameEnd])
}

// Link returns link metadata.
func (g *Graph) Link(id int) Link { return g.links[id] }

// Hosts lists all host node IDs in creation order.
func (g *Graph) Hosts() []NodeID { return g.ofKind(Host) }

// Switches lists all switch node IDs in creation order.
func (g *Graph) Switches() []NodeID { return g.ofKind(Switch) }

func (g *Graph) ofKind(kind Kind) []NodeID {
	n := 0
	for _, nd := range g.nodes {
		if nd.kind == kind {
			n++
		}
	}
	out := make([]NodeID, 0, n)
	for id, nd := range g.nodes {
		if nd.kind == kind {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// Degree reports how many links attach to n.
func (g *Graph) Degree(n NodeID) int { return len(g.neighbors(n)) }

// distTo returns (cached) BFS hop distances toward dst, respecting the
// host-transit rule: paths may pass through a host only when
// AllowHostTransit is set.
func (g *Graph) distTo(dst NodeID) []int32 {
	if d, ok := g.dist[dst]; ok {
		return d
	}
	d := make([]int32, len(g.nodes))
	for i := range d {
		d[i] = -1
	}
	d[dst] = 0
	queue := append(g.bfs[:0], dst)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		// We expand u's neighbors only if a path may pass *through* u.
		// dst itself is an endpoint, not transit.
		if u != dst && g.nodes[u].kind == Host && !g.AllowHostTransit {
			continue
		}
		for _, a := range g.neighbors(u) {
			if d[a.peer] == -1 {
				d[a.peer] = d[u] + 1
				queue = append(queue, NodeID(a.peer))
			}
		}
	}
	g.bfs = queue
	if g.dist == nil {
		g.dist = make(map[NodeID][]int32)
	}
	g.dist[dst] = d
	return d
}

// HopCount reports the shortest hop distance between src and dst, or -1
// if unreachable.
func (g *Graph) HopCount(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	return int(g.distTo(dst)[src])
}

// Path computes a shortest path from src to dst. With multiple equal-cost
// next hops, ecmpKey selects one deterministically (flows hash onto
// paths); key 0 always takes the first candidate, giving single-path
// routing. It appends the node sequence (src..dst) to nodes and the link
// IDs between them to links and returns both, so a caller that passes
// its own buffers back in resolves routes without allocating.
func (g *Graph) Path(src, dst NodeID, ecmpKey uint64, nodes []NodeID, links []int) ([]NodeID, []int, error) {
	if !g.valid(src) || !g.valid(dst) {
		return nil, nil, fmt.Errorf("topology: path endpoints %d-%d out of range", src, dst)
	}
	if src == dst {
		return append(nodes, src), links, nil
	}
	dist := g.distTo(dst)
	if dist[src] < 0 {
		return nil, nil, fmt.Errorf("topology: no path from %d to %d", src, dst)
	}
	// A candidate next hop is one hop closer and usable: dst, a
	// switch, or a transit-permitted host.
	candidate := func(a adjacency, want int32) bool {
		return dist[a.peer] == want &&
			(NodeID(a.peer) == dst || g.nodes[a.peer].kind == Switch || g.AllowHostTransit)
	}
	nodes = append(nodes, src)
	cur := src
	for cur != dst {
		adj, want := g.neighbors(cur), dist[cur]-1
		first, count := -1, 0
		for i, a := range adj {
			if candidate(a, want) {
				if count == 0 {
					first = i
				}
				count++
			}
		}
		if count == 0 {
			return nil, nil, fmt.Errorf("topology: routing stuck at node %d toward %d", cur, dst)
		}
		pick := adj[first]
		if ecmpKey != 0 && count > 1 {
			h := ecmpKey
			h ^= uint64(cur) * 0x9e3779b97f4a7c15
			h ^= h >> 29
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 32
			// The (h mod count)-th candidate in adjacency order.
			k := h % uint64(count)
			for _, a := range adj[first:] {
				if candidate(a, want) {
					if k == 0 {
						pick = a
						break
					}
					k--
				}
			}
		}
		links = append(links, int(pick.link))
		nodes = append(nodes, NodeID(pick.peer))
		cur = NodeID(pick.peer)
	}
	return nodes, links, nil
}

// Validate checks graph invariants: every host reaches every other host.
func (g *Graph) Validate() error {
	hosts := g.Hosts()
	if len(hosts) == 0 {
		return fmt.Errorf("topology: no hosts")
	}
	dist := g.distTo(hosts[0])
	for _, h := range hosts[1:] {
		if dist[h] < 0 {
			return fmt.Errorf("topology: host %d cannot reach host %d", h, hosts[0])
		}
	}
	return nil
}
