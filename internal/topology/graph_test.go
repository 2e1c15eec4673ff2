package topology

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// oracleShapes covers every family at several sizes, including the
// degenerate ones: a one-host star, a 2-ary fat-tree, a 2-wide CamCube
// dimension (no double links) and a one-row flattened butterfly.
var oracleShapes = []Topology{
	Star{Hosts: 1}, Star{Hosts: 2}, Star{Hosts: 24},
	FatTree{K: 2}, FatTree{K: 4}, FatTree{K: 8},
	BCube{N: 2, K: 1}, BCube{N: 3, K: 2}, BCube{N: 4, K: 1}, BCube{N: 5, K: 0},
	CamCube{X: 2, Y: 2, Z: 2}, CamCube{X: 3, Y: 4, Z: 5}, CamCube{X: 2, Y: 3, Z: 4},
	FlattenedButterfly{Rows: 2, Cols: 2, Concentration: 2},
	FlattenedButterfly{Rows: 3, Cols: 4, Concentration: 2},
	FlattenedButterfly{Rows: 1, Cols: 5, Concentration: 1},
}

// TestGraphMatchesOracle holds every builder's graph to the append-based
// graph it replaced (oracle_test.go): node kinds and names, links in
// order, each node's adjacency in order, hop counts between every pair,
// host and switch lists, and the scope map.
func TestGraphMatchesOracle(t *testing.T) {
	for _, b := range oracleShapes {
		g, err := b.Build()
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		o := oracleBuild(b)
		if g.AllowHostTransit != o.AllowHostTransit || g.NumNodes() != len(o.nodes) || g.NumLinks() != len(o.links) {
			t.Fatalf("%s: transit %v, %d nodes, %d links; oracle %v, %d, %d", b.Name(),
				g.AllowHostTransit, g.NumNodes(), g.NumLinks(), o.AllowHostTransit, len(o.nodes), len(o.links))
		}
		for id, want := range o.nodes {
			if name, kind := g.Name(NodeID(id)), g.nodes[id].kind; name != want.Name || kind != want.Kind {
				t.Fatalf("%s: node %d is %v %q, oracle %v %q", b.Name(), id, kind, name, want.Kind, want.Name)
			}
			var adj []oracleAdj
			for _, a := range g.neighbors(NodeID(id)) {
				adj = append(adj, oracleAdj{link: int(a.link), peer: NodeID(a.peer)})
			}
			if !slices.Equal(adj, o.adj[id]) || g.Degree(NodeID(id)) != len(o.adj[id]) {
				t.Fatalf("%s: node %d adjacency %v, oracle %v", b.Name(), id, adj, o.adj[id])
			}
		}
		for i, want := range o.links {
			if got := g.Link(i); got != want {
				t.Fatalf("%s: link %d is %+v, oracle %+v", b.Name(), i, got, want)
			}
		}
		if !slices.Equal(g.Hosts(), o.Hosts()) || !slices.Equal(g.Switches(), o.Switches()) {
			t.Fatalf("%s: host or switch lists differ from the oracle", b.Name())
		}
		for src := range o.nodes {
			for dst := range o.nodes {
				if got, want := g.HopCount(NodeID(src), NodeID(dst)), o.HopCount(NodeID(src), NodeID(dst)); got != want {
					t.Fatalf("%s: %d->%d hop count %d, oracle %d", b.Name(), src, dst, got, want)
				}
			}
		}
		if got, want := NewScopeMap(g), oracleScopeMap(o); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: scope map\n got %+v\nwant %+v", b.Name(), got, want)
		}
	}
}

// TestPathMatchesOracle: for random (src, dst) pairs over every node —
// hosts and switches — Path returns the oracle's route, error or not, at
// ECMP key 0 and at random keys, whether the caller's buffers are fresh
// or reused (it appends to them).
func TestPathMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewPCG(46, 1))
	for _, b := range oracleShapes {
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		o := oracleBuild(b)
		n := len(o.nodes)
		var nodesBuf []NodeID
		var linksBuf []int
		for i := 0; i < 400; i++ {
			src, dst := NodeID(r.IntN(n)), NodeID(r.IntN(n))
			key := uint64(0)
			if i%2 == 1 {
				key = r.Uint64()
			}
			wantNodes, wantLinks, wantErr := o.Path(src, dst, key)
			nodes, links, err := g.Path(src, dst, key, nodesBuf[:0], linksBuf[:0])
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: %d->%d key %d: error %v, oracle %v", b.Name(), src, dst, key, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(nodes, wantNodes) || !slices.Equal(links, wantLinks) {
				t.Fatalf("%s: %d->%d key %d: path %v %v, oracle %v %v", b.Name(), src, dst, key, nodes, links, wantNodes, wantLinks)
			}
			nodesBuf, linksBuf = nodes, links
		}
		// A prefix already in the buffers is kept.
		h := g.Hosts()
		nodes, links, err := g.Path(h[0], h[len(h)-1], 0, []NodeID{-7}, []int{-9})
		wantNodes, wantLinks, _ := o.Path(h[0], h[len(h)-1], 0)
		if err != nil || !slices.Equal(nodes, append([]NodeID{-7}, wantNodes...)) || !slices.Equal(links, append([]int{-9}, wantLinks...)) {
			t.Fatalf("%s: appending path %v %v (%v), want it after the prefix", b.Name(), nodes, links, err)
		}
	}
}

// TestGraphMutationInvalidates: a link added after routes were resolved
// is seen by the next route (the adjacency layout and the route cache
// are both dropped), and a node added after a layout is routable.
func TestGraphMutationInvalidates(t *testing.T) {
	g := NewGraph(false)
	a := g.AddNode(Host, "a")
	s1 := g.AddNode(Switch, "s1")
	s2 := g.AddNode(Switch, "s2")
	b := g.AddNode(Host, "b")
	for _, l := range [][2]NodeID{{a, s1}, {s1, s2}, {s2, b}} {
		if _, err := g.AddLink(l[0], l[1], 1e9); err != nil {
			t.Fatal(err)
		}
	}
	if hc := g.HopCount(a, b); hc != 3 {
		t.Fatalf("hop count %d, want 3", hc)
	}
	if _, err := g.AddLink(s1, b, 1e9); err != nil {
		t.Fatal(err)
	}
	if hc := g.HopCount(a, b); hc != 2 {
		t.Fatalf("after a shortcut: hop count %d, want 2", hc)
	}
	c := g.AddNode(Host, "c")
	if _, err := g.AddLink(c, s2, 1e9); err != nil {
		t.Fatal(err)
	}
	nodes, _, err := g.Path(a, c, 0, nil, nil)
	if err != nil || !slices.Equal(nodes, []NodeID{a, s1, s2, c}) {
		t.Fatalf("path to a late node: %v, %v", nodes, err)
	}
	if g.Degree(s2) != 3 || g.Name(c) != "c" {
		t.Fatalf("late node: degree of s2 %d, name %q", g.Degree(s2), g.Name(c))
	}
}
