package topology

import (
	"fmt"
)

// Topology builds a concrete graph. Implementations correspond to the
// architectures named in paper Sec. III-B.
type Topology interface {
	// Check reports whether the shape parameters describe a topology
	// Build can construct: legal for the family and within MaxNodes. It
	// allocates nothing, so a caller holding shape parameters from
	// outside the program asks it first; Build opens with it.
	Check() error
	// Build constructs the graph. Host nodes are created in a stable
	// order so host index i across runs refers to the same position.
	Build() (*Graph, error)
	// Name identifies the topology family.
	Name() string
	// NumHosts reports the host count of a shape that passed Check.
	NumHosts() int
}

// MaxNodes caps the hosts, and the switches, one topology may declare:
// four times the 1,024,000-host hyperscale row, far below where a
// mistyped shape parameter asks for terabytes.
const MaxNodes = 1 << 22

// MaxLinks caps the links one topology may declare. Every family but
// the flattened butterfly keeps its links within three times its hosts
// or switches; a flattened butterfly's grow with its routers times its
// row and column length.
const MaxLinks = 4 * MaxNodes

// product multiplies shape factors, saturating at MaxNodes+1 so no
// shape parameter can wrap an int on the way to the cap. A factor below
// one (a shape Check rejects) makes it zero.
func product(factors ...int) int {
	p := 1
	for _, f := range factors {
		if f < 1 {
			return 0
		}
		if f > MaxNodes/p {
			return MaxNodes + 1
		}
		p *= f
	}
	return p
}

// checkSize is the cap every Check ends with.
func checkSize(t Topology, hosts, switches int) error {
	if hosts > MaxNodes || switches > MaxNodes {
		return fmt.Errorf("topology: %s exceeds the cap of %d hosts and %d switches", t.Name(), MaxNodes, MaxNodes)
	}
	return nil
}

// Star is N hosts attached to a single switch — the paper's switch
// validation setup (Sec. V-B: 24 servers on one Cisco 2960).
type Star struct {
	Hosts   int
	RateBps float64
}

// Name implements Topology.
func (s Star) Name() string { return fmt.Sprintf("star-%d", s.Hosts) }

// NumHosts reports the declared host count.
func (s Star) NumHosts() int { return s.Hosts }

// Check implements Topology.
func (s Star) Check() error {
	if s.Hosts < 1 {
		return fmt.Errorf("topology: star needs at least 1 host")
	}
	return checkSize(s, s.Hosts, 1)
}

// Build implements Topology.
func (s Star) Build() (*Graph, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	rate := s.RateBps
	if rate <= 0 {
		rate = 1e9
	}
	g := newGraph(false, s.Hosts+1, s.Hosts)
	sw := g.AddNode(Switch, "sw0")
	for i := 0; i < s.Hosts; i++ {
		h := g.part("h", i).endNode(Host)
		if _, err := g.AddLink(h, sw, rate); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// FatTree is the k-ary fat-tree of Al-Fares et al. [8], the paper's
// Fig. 10 topology: k pods each with k/2 edge and k/2 aggregation
// switches, (k/2)^2 core switches, and k^3/4 hosts, with full bisection
// bandwidth. K must be even and >= 2.
type FatTree struct {
	K       int
	RateBps float64
}

// Name implements Topology.
func (f FatTree) Name() string { return fmt.Sprintf("fattree-k%d", f.K) }

// size reports k^3/4 hosts and 5k^2/4 switches (core + agg + edge).
func (f FatTree) size() (hosts, switches int) {
	half := f.K / 2
	return product(half, half, f.K), product(5, half, half)
}

// NumHosts reports k^3/4.
func (f FatTree) NumHosts() int { hosts, _ := f.size(); return hosts }

// Check implements Topology.
func (f FatTree) Check() error {
	if f.K < 2 || f.K%2 != 0 {
		return fmt.Errorf("topology: fat-tree k must be even and >= 2 (got %d)", f.K)
	}
	hosts, switches := f.size()
	return checkSize(f, hosts, switches)
}

// Build implements Topology.
func (f FatTree) Build() (*Graph, error) {
	if err := f.Check(); err != nil {
		return nil, err
	}
	k := f.K
	rate := f.RateBps
	if rate <= 0 {
		rate = 10e9
	}
	hosts, switches := f.size()
	g := newGraph(false, hosts+switches, 3*hosts) // host-edge, edge-agg, agg-core
	half := k / 2

	// Hosts first so host ordering is pod-major: host i is node i.
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				g.part("p", pod).part("-e", e).part("-h", h).endNode(Host)
			}
		}
	}
	core := make([]NodeID, half*half) // core[i*half+j]
	for i := 0; i < half; i++ {
		for j := 0; j < half; j++ {
			core[i*half+j] = g.part("core-", i).part("-", j).endNode(Switch)
		}
	}
	aggs := make([]NodeID, half)
	edges := make([]NodeID, half)
	for pod := 0; pod < k; pod++ {
		for i := 0; i < half; i++ {
			aggs[i] = g.part("p", pod).part("-agg", i).endNode(Switch)
			edges[i] = g.part("p", pod).part("-edge", i).endNode(Switch)
		}
		// Edge <-> hosts.
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				host := NodeID(pod*half*half + e*half + h)
				if _, err := g.AddLink(host, edges[e], rate); err != nil {
					return nil, err
				}
			}
		}
		// Edge <-> agg: full bipartite within the pod.
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				if _, err := g.AddLink(edges[e], aggs[a], rate); err != nil {
					return nil, err
				}
			}
		}
		// Agg a <-> core[a][*].
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				if _, err := g.AddLink(aggs[a], core[a*half+j], rate); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// BCube is the hybrid server-centric BCube(n, k) of Guo et al. [26]:
// n^(k+1) hosts, each with k+1 ports; level-l switches connect hosts
// differing only in digit l of their base-n address. Hosts forward
// traffic (hybrid architecture).
type BCube struct {
	N       int // switch port count
	K       int // levels - 1
	RateBps float64
}

// Name implements Topology.
func (b BCube) Name() string { return fmt.Sprintf("bcube-n%d-k%d", b.N, b.K) }

// size reports n^(k+1) hosts and (k+1)·n^k switches: k+1 levels of n^k
// switches each. The power stops at the cap, so a huge k costs nothing.
func (b BCube) size() (hosts, switches int) {
	perLevel := 1
	for i := 0; i < b.K && perLevel <= MaxNodes; i++ {
		perLevel = product(perLevel, b.N)
	}
	return product(perLevel, b.N), product(perLevel, min(b.K, MaxNodes)+1)
}

// NumHosts reports n^(k+1).
func (b BCube) NumHosts() int { hosts, _ := b.size(); return hosts }

// Check implements Topology.
func (b BCube) Check() error {
	if b.N < 2 || b.K < 0 {
		return fmt.Errorf("topology: BCube needs n >= 2, k >= 0 (got n=%d k=%d)", b.N, b.K)
	}
	hosts, switches := b.size()
	return checkSize(b, hosts, switches)
}

// Build implements Topology.
func (b BCube) Build() (*Graph, error) {
	if err := b.Check(); err != nil {
		return nil, err
	}
	rate := b.RateBps
	if rate <= 0 {
		rate = 1e9
	}
	nHosts, switches := b.size()
	g := newGraph(true, nHosts+switches, (b.K+1)*nHosts) // hybrid: hosts forward
	// Host i is node i.
	for i := 0; i < nHosts; i++ {
		g.part("h", i).endNode(Host)
	}
	// Level l has n^k switches, each connecting n hosts.
	nPerLevel := nHosts / b.N
	pow := func(base, exp int) int {
		out := 1
		for i := 0; i < exp; i++ {
			out *= base
		}
		return out
	}
	for l := 0; l <= b.K; l++ {
		stride := pow(b.N, l)
		for s := 0; s < nPerLevel; s++ {
			sw := g.part("l", l).part("-s", s).endNode(Switch)
			// The n hosts of switch (l, s) share all digits except
			// digit l. s enumerates the remaining digit combination.
			low := s % stride
			high := s / stride
			base := high*stride*b.N + low
			for d := 0; d < b.N; d++ {
				h := NodeID(base + d*stride)
				if _, err := g.AddLink(h, sw, rate); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// CamCube is the server-only 3D torus of Abu-Libdeh et al. [6], [7]:
// hosts at integer coordinates of an X×Y×Z torus, each directly linked to
// its six neighbors; servers do all switching.
type CamCube struct {
	X, Y, Z int
	RateBps float64
}

// Name implements Topology.
func (c CamCube) Name() string { return fmt.Sprintf("camcube-%dx%dx%d", c.X, c.Y, c.Z) }

// NumHosts reports X·Y·Z.
func (c CamCube) NumHosts() int { return product(c.X, c.Y, c.Z) }

// Check implements Topology. CamCube is server-only: no switches.
func (c CamCube) Check() error {
	if c.X < 2 || c.Y < 2 || c.Z < 2 {
		return fmt.Errorf("topology: CamCube dims must be >= 2 (got %dx%dx%d)", c.X, c.Y, c.Z)
	}
	return checkSize(c, c.NumHosts(), 0)
}

// Build implements Topology.
func (c CamCube) Build() (*Graph, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	rate := c.RateBps
	if rate <= 0 {
		rate = 1e9
	}
	hosts := c.NumHosts()
	g := newGraph(true, hosts, 3*hosts) // server-only: hosts forward
	id := func(x, y, z int) NodeID {
		return NodeID(x*c.Y*c.Z + y*c.Z + z)
	}
	for x := 0; x < c.X; x++ {
		for y := 0; y < c.Y; y++ {
			for z := 0; z < c.Z; z++ {
				g.part("h", x).part("-", y).part("-", z).endNode(Host)
			}
		}
	}
	// +1 direction links in each dimension close the torus. Avoid double
	// links when a dimension has exactly 2 elements.
	for x := 0; x < c.X; x++ {
		for y := 0; y < c.Y; y++ {
			for z := 0; z < c.Z; z++ {
				if c.X > 2 || x == 0 {
					if _, err := g.AddLink(id(x, y, z), id((x+1)%c.X, y, z), rate); err != nil {
						return nil, err
					}
				}
				if c.Y > 2 || y == 0 {
					if _, err := g.AddLink(id(x, y, z), id(x, (y+1)%c.Y, z), rate); err != nil {
						return nil, err
					}
				}
				if c.Z > 2 || z == 0 {
					if _, err := g.AddLink(id(x, y, z), id(x, y, (z+1)%c.Z), rate); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return g, nil
}

// FlattenedButterfly is the 2D flattened butterfly of Kim et al. [34]:
// a RowsxCols grid of routers, fully connected within each row and each
// column, with Concentration hosts per router.
type FlattenedButterfly struct {
	Rows, Cols    int
	Concentration int
	RateBps       float64
}

// Name implements Topology.
func (f FlattenedButterfly) Name() string {
	return fmt.Sprintf("flatbutterfly-%dx%dx%d", f.Rows, f.Cols, f.Concentration)
}

// NumHosts reports Rows·Cols·Concentration.
func (f FlattenedButterfly) NumHosts() int { return product(f.Rows, f.Cols, f.Concentration) }

// Check implements Topology. The routers are the Rows·Cols grid.
func (f FlattenedButterfly) Check() error {
	if f.Rows < 1 || f.Cols < 1 || f.Concentration < 1 {
		return fmt.Errorf("topology: flattened butterfly needs positive dims")
	}
	routers := product(f.Rows, f.Cols)
	if err := checkSize(f, f.NumHosts(), routers); err != nil {
		return err
	}
	// Every router links to all others in its row and its column, so
	// the links grow with routers times the row and column length, which
	// the node caps do not bound. Rows and Cols are at most MaxNodes
	// here, so none of these products overflows.
	degree := f.Concentration + f.Rows + f.Cols - 2
	links := f.NumHosts() + routers*(f.Rows+f.Cols-2)/2
	if degree > MaxNodes || links > MaxLinks {
		return fmt.Errorf("topology: %s needs %d links and %d ports a router, over the caps of %d and %d",
			f.Name(), links, degree, MaxLinks, MaxNodes)
	}
	return nil
}

// Build implements Topology.
func (f FlattenedButterfly) Build() (*Graph, error) {
	if err := f.Check(); err != nil {
		return nil, err
	}
	rate := f.RateBps
	if rate <= 0 {
		rate = 10e9
	}
	hosts, routers := f.NumHosts(), f.Rows*f.Cols
	g := newGraph(false, hosts+routers, hosts+routers*(f.Rows+f.Cols-2)/2)
	// Hosts first, router-major, for stable host ordering: the hosts of
	// router (r, c) are nodes from (r*Cols+c)*Concentration on, and the
	// router itself is node hosts + r*Cols + c.
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			for h := 0; h < f.Concentration; h++ {
				g.part("r", r).part("-c", c).part("-h", h).endNode(Host)
			}
		}
	}
	router := func(r, c int) NodeID { return NodeID(hosts + r*f.Cols + c) }
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			rt := g.part("rt-", r).part("-", c).endNode(Switch)
			for h := 0; h < f.Concentration; h++ {
				if _, err := g.AddLink(NodeID((r*f.Cols+c)*f.Concentration+h), rt, rate); err != nil {
					return nil, err
				}
			}
		}
	}
	// Full row connectivity.
	for r := 0; r < f.Rows; r++ {
		for c1 := 0; c1 < f.Cols; c1++ {
			for c2 := c1 + 1; c2 < f.Cols; c2++ {
				if _, err := g.AddLink(router(r, c1), router(r, c2), rate); err != nil {
					return nil, err
				}
			}
		}
	}
	// Full column connectivity.
	for c := 0; c < f.Cols; c++ {
		for r1 := 0; r1 < f.Rows; r1++ {
			for r2 := r1 + 1; r2 < f.Rows; r2++ {
				if _, err := g.AddLink(router(r1, c), router(r2, c), rate); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}
