package topology

import (
	"testing"
	"testing/quick"
)

func TestStar(t *testing.T) {
	g, err := Star{Hosts: 24}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Hosts()) != 24 || len(g.Switches()) != 1 {
		t.Fatalf("hosts=%d switches=%d", len(g.Hosts()), len(g.Switches()))
	}
	if g.NumLinks() != 24 {
		t.Errorf("links = %d", g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Any host pair routes through the switch: 2 hops.
	hosts := g.Hosts()
	if hc := g.HopCount(hosts[0], hosts[23]); hc != 2 {
		t.Errorf("hop count = %d, want 2", hc)
	}
	nodes, links, err := g.Path(hosts[0], hosts[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 || len(links) != 2 {
		t.Errorf("path = %v links = %v", nodes, links)
	}
	if g.Node(nodes[1]).Kind != Switch {
		t.Error("middle node is not the switch")
	}
}

func TestStarRejectsEmpty(t *testing.T) {
	if _, err := (Star{Hosts: 0}).Build(); err == nil {
		t.Error("empty star accepted")
	}
}

func TestFatTreeK4(t *testing.T) {
	ft := FatTree{K: 4}
	g, err := ft.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Hosts()) != 16 || ft.NumHosts() != 16 {
		t.Errorf("hosts = %d, want 16", len(g.Hosts()))
	}
	if len(g.Switches()) != 20 {
		t.Errorf("switches = %d, want 20", len(g.Switches()))
	}
	// k=4: links = hosts(16) + edge-agg(4 pods * 4) + agg-core(4 pods * 4) = 48.
	if g.NumLinks() != 48 {
		t.Errorf("links = %d, want 48", g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	hosts := g.Hosts()
	// Same edge switch: 2 hops.
	if hc := g.HopCount(hosts[0], hosts[1]); hc != 2 {
		t.Errorf("same-edge hops = %d, want 2", hc)
	}
	// Same pod, different edge: 4 hops.
	if hc := g.HopCount(hosts[0], hosts[2]); hc != 4 {
		t.Errorf("same-pod hops = %d, want 4", hc)
	}
	// Different pods: 6 hops.
	if hc := g.HopCount(hosts[0], hosts[15]); hc != 6 {
		t.Errorf("cross-pod hops = %d, want 6", hc)
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	if _, err := (FatTree{K: 3}).Build(); err == nil {
		t.Error("odd k accepted")
	}
	if _, err := (FatTree{K: 0}).Build(); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestFatTreeECMPUsesMultiplePaths(t *testing.T) {
	g, err := FatTree{K: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	src, dst := hosts[0], hosts[15]
	seen := make(map[NodeID]bool)
	for key := uint64(1); key <= 64; key++ {
		nodes, _, err := g.Path(src, dst, key)
		if err != nil {
			t.Fatal(err)
		}
		// Record the core switch used (middle of a 6-hop path).
		seen[nodes[3]] = true
		// All paths must be shortest.
		if len(nodes) != 7 {
			t.Fatalf("path length %d, want 7 nodes", len(nodes))
		}
	}
	if len(seen) < 2 {
		t.Errorf("ECMP explored %d core switches, want >= 2", len(seen))
	}
	// Key 0 is deterministic single-path.
	n1, _, _ := g.Path(src, dst, 0)
	n2, _, _ := g.Path(src, dst, 0)
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Error("key-0 path not deterministic")
		}
	}
}

func TestBCube(t *testing.T) {
	b := BCube{N: 4, K: 1}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Hosts()) != 16 || b.NumHosts() != 16 {
		t.Errorf("hosts = %d, want 16", len(g.Hosts()))
	}
	// BCube(4,1): 2 levels x 4 switches.
	if len(g.Switches()) != 8 {
		t.Errorf("switches = %d, want 8", len(g.Switches()))
	}
	// Each host has k+1 = 2 links.
	for _, h := range g.Hosts() {
		if g.Degree(h) != 2 {
			t.Errorf("host %d degree = %d, want 2", h, g.Degree(h))
		}
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if !g.AllowHostTransit {
		t.Error("BCube must allow host transit (hybrid architecture)")
	}
	// Hosts 0 and 1 share a level-0 switch: 2 hops. Hosts 0 and 5
	// (digits differ in both positions) need host transit: 4 hops.
	hosts := g.Hosts()
	if hc := g.HopCount(hosts[0], hosts[1]); hc != 2 {
		t.Errorf("same-switch hops = %d, want 2", hc)
	}
	if hc := g.HopCount(hosts[0], hosts[5]); hc != 4 {
		t.Errorf("cross hops = %d, want 4", hc)
	}
}

func TestCamCube(t *testing.T) {
	c := CamCube{X: 3, Y: 3, Z: 3}
	g, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Hosts()) != 27 || len(g.Switches()) != 0 {
		t.Errorf("hosts=%d switches=%d", len(g.Hosts()), len(g.Switches()))
	}
	// 3D torus: every node has degree 6.
	for _, h := range g.Hosts() {
		if g.Degree(h) != 6 {
			t.Errorf("host %d degree = %d, want 6", h, g.Degree(h))
		}
	}
	// links = 27 * 6 / 2 = 81.
	if g.NumLinks() != 81 {
		t.Errorf("links = %d, want 81", g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Torus wrap: corner to corner is 3 hops (1 per dimension via wrap).
	if hc := g.HopCount(0, g.Hosts()[26]); hc != 3 {
		t.Errorf("corner hops = %d, want 3", hc)
	}
}

func TestCamCubeDim2NoDoubleLinks(t *testing.T) {
	g, err := CamCube{X: 2, Y: 2, Z: 2}.Build()
	if err != nil {
		t.Fatal(err)
	}
	// 2x2x2 torus without duplicate links: each node degree 3, 12 links.
	for _, h := range g.Hosts() {
		if g.Degree(h) != 3 {
			t.Errorf("host %d degree = %d, want 3", h, g.Degree(h))
		}
	}
	if g.NumLinks() != 12 {
		t.Errorf("links = %d, want 12", g.NumLinks())
	}
}

func TestFlattenedButterfly(t *testing.T) {
	f := FlattenedButterfly{Rows: 2, Cols: 4, Concentration: 2}
	g, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Hosts()) != 16 {
		t.Errorf("hosts = %d, want 16", len(g.Hosts()))
	}
	if len(g.Switches()) != 8 {
		t.Errorf("switches = %d, want 8", len(g.Switches()))
	}
	// Links: host links 16 + rows 2*C(4,2)=12 + cols 4*C(2,2)... wait,
	// columns: 4 columns * C(2,2)=1 each = 4. Total 16+12+4 = 32.
	if g.NumLinks() != 32 {
		t.Errorf("links = %d, want 32", g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	// Any two routers are at most 2 router-hops apart (one row + one
	// column move), so host-to-host <= 4 hops.
	hosts := g.Hosts()
	for _, a := range hosts {
		for _, b := range hosts {
			if a == b {
				continue
			}
			if hc := g.HopCount(a, b); hc > 4 {
				t.Fatalf("hosts %d-%d: %d hops", a, b, hc)
			}
		}
	}
}

func TestHostTransitBlocked(t *testing.T) {
	// A "dumbbell" where the only path between two hosts crosses a third
	// host must be unroutable without host transit.
	g := NewGraph(false)
	h1 := g.AddNode(Host, "h1")
	mid := g.AddNode(Host, "mid")
	h2 := g.AddNode(Host, "h2")
	if _, err := g.AddLink(h1, mid, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(mid, h2, 1e9); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.Path(h1, h2, 0); err == nil {
		t.Error("path through host allowed without host transit")
	}
	// Same shape with transit allowed routes fine.
	g2 := NewGraph(true)
	a := g2.AddNode(Host, "h1")
	m := g2.AddNode(Host, "mid")
	b := g2.AddNode(Host, "h2")
	g2.AddLink(a, m, 1e9)
	g2.AddLink(m, b, 1e9)
	if _, _, err := g2.Path(a, b, 0); err != nil {
		t.Errorf("hybrid path failed: %v", err)
	}
}

func TestGraphErrors(t *testing.T) {
	g := NewGraph(false)
	a := g.AddNode(Host, "a")
	if _, err := g.AddLink(a, a, 1e9); err == nil {
		t.Error("self loop accepted")
	}
	if _, err := g.AddLink(a, 99, 1e9); err == nil {
		t.Error("out of range accepted")
	}
	b := g.AddNode(Host, "b")
	if _, err := g.AddLink(a, b, 0); err == nil {
		t.Error("zero rate accepted")
	}
	if _, _, err := g.Path(a, NodeID(99), 0); err == nil {
		t.Error("out-of-range path accepted")
	}
	if _, _, err := g.Path(a, b, 0); err == nil {
		t.Error("disconnected path accepted")
	}
	if err := g.Validate(); err == nil {
		t.Error("disconnected graph validated")
	}
	if err := NewGraph(false).Validate(); err == nil {
		t.Error("empty graph validated")
	}
}

func TestPathSelf(t *testing.T) {
	g, _ := Star{Hosts: 2}.Build()
	h := g.Hosts()[0]
	nodes, links, err := g.Path(h, h, 0)
	if err != nil || len(nodes) != 1 || len(links) != 0 {
		t.Errorf("self path = %v, %v, %v", nodes, links, err)
	}
	if g.HopCount(h, h) != 0 {
		t.Error("self hop count != 0")
	}
}

// Property: for random host pairs in a fat-tree, Path returns a valid
// shortest path: consecutive nodes joined by the reported links, length
// equal to HopCount, hosts only at the ends.
func TestPathValidityProperty(t *testing.T) {
	g, err := FatTree{K: 4}.Build()
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	f := func(a, b uint8, key uint64) bool {
		src := hosts[int(a)%len(hosts)]
		dst := hosts[int(b)%len(hosts)]
		nodes, links, err := g.Path(src, dst, key)
		if src == dst {
			return err == nil && len(nodes) == 1
		}
		if err != nil {
			return false
		}
		if len(nodes) != len(links)+1 {
			return false
		}
		if len(links) != g.HopCount(src, dst) {
			return false
		}
		for i, l := range links {
			lk := g.Link(l)
			if !(lk.A == nodes[i] && lk.B == nodes[i+1]) &&
				!(lk.B == nodes[i] && lk.A == nodes[i+1]) {
				return false
			}
		}
		for _, n := range nodes[1 : len(nodes)-1] {
			if g.Node(n).Kind != Switch {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: hop counts are symmetric in an undirected graph.
func TestHopSymmetryProperty(t *testing.T) {
	g, err := BCube{N: 3, K: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	hosts := g.Hosts()
	f := func(a, b uint8) bool {
		x := hosts[int(a)%len(hosts)]
		y := hosts[int(b)%len(hosts)]
		return g.HopCount(x, y) == g.HopCount(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNamesAndKindString(t *testing.T) {
	if (Star{Hosts: 5}).Name() == "" || (FatTree{K: 4}).Name() == "" ||
		(BCube{N: 2, K: 1}).Name() == "" || (CamCube{X: 2, Y: 2, Z: 2}).Name() == "" ||
		(FlattenedButterfly{Rows: 2, Cols: 2, Concentration: 1}).Name() == "" {
		t.Error("empty topology name")
	}
	if Host.String() != "host" || Switch.String() != "switch" || Kind(9).String() != "Kind(9)" {
		t.Error("Kind.String broken")
	}
}
