// Package topology implements HolDCSim's network topology substrate
// (paper Sec. III-B): a node/link graph with shortest-path routing and
// deterministic ECMP, plus builders for the paper's named architectures —
// fat-tree and flattened butterfly (switch-only), CamCube (server-only),
// BCube (hybrid), and the star used in the switch validation.
package topology

import (
	"fmt"
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

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case Switch:
		return "switch"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one vertex of the topology.
type Node struct {
	ID   NodeID
	Kind Kind
	Name string
}

// Link is one bidirectional edge with a symmetric rate.
type Link struct {
	ID      int
	A, B    NodeID
	RateBps float64
}

type adjacency struct {
	link int
	peer NodeID
}

// Graph is a static topology: nodes, links, and routing state.
// AllowHostTransit enables forwarding through host nodes, required by
// server-only (CamCube) and hybrid (BCube) architectures.
type Graph struct {
	AllowHostTransit bool

	nodes []Node
	links []Link
	adj   [][]adjacency

	// dist caches BFS hop counts per destination (lazy).
	dist map[NodeID][]int32
}

// NewGraph returns an empty graph.
func NewGraph(allowHostTransit bool) *Graph {
	return &Graph{AllowHostTransit: allowHostTransit, dist: make(map[NodeID][]int32)}
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(kind Kind, name string) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Kind: kind, Name: name})
	g.adj = append(g.adj, nil)
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
	id := len(g.links)
	g.links = append(g.links, Link{ID: id, A: a, B: b, RateBps: rateBps})
	g.adj[a] = append(g.adj[a], adjacency{link: id, peer: b})
	g.adj[b] = append(g.adj[b], adjacency{link: id, peer: a})
	g.dist = make(map[NodeID][]int32) // invalidate route cache
	return id, nil
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks reports the link count.
func (g *Graph) NumLinks() int { return len(g.links) }

// Node returns node metadata.
func (g *Graph) Node(id NodeID) Node { return g.nodes[id] }

// Link returns link metadata.
func (g *Graph) Link(id int) Link { return g.links[id] }

// Hosts lists all host node IDs in creation order.
func (g *Graph) Hosts() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Host {
			out = append(out, n.ID)
		}
	}
	return out
}

// Switches lists all switch node IDs in creation order.
func (g *Graph) Switches() []NodeID {
	var out []NodeID
	for _, n := range g.nodes {
		if n.Kind == Switch {
			out = append(out, n.ID)
		}
	}
	return out
}

// Degree reports how many links attach to n.
func (g *Graph) Degree(n NodeID) int { return len(g.adj[n]) }

// Neighbors reports the (link, peer) pairs attached to n.
func (g *Graph) Neighbors(n NodeID) [](struct {
	Link int
	Peer NodeID
}) {
	out := make([]struct {
		Link int
		Peer NodeID
	}, len(g.adj[n]))
	for i, a := range g.adj[n] {
		out[i].Link = a.link
		out[i].Peer = a.peer
	}
	return out
}

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
	queue := []NodeID{dst}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		// We expand u's neighbors only if a path may pass *through* u.
		// dst itself is an endpoint, not transit.
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
// routing. It returns the node sequence (src..dst) and the link IDs
// between them.
func (g *Graph) Path(src, dst NodeID, ecmpKey uint64) ([]NodeID, []int, error) {
	if !g.valid(src) || !g.valid(dst) {
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
		var candidates []adjacency
		for _, a := range g.adj[cur] {
			if dist[a.peer] == dist[cur]-1 {
				// Next hop must be usable: dst, a switch, or a
				// transit-permitted host.
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
