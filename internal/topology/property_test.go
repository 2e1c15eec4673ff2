package topology

import (
	"fmt"
	"math"
	"testing"
)

// numSwitches is the tests' own closed form of each family's switch
// count; with NumHosts it is the declared size the built graph must match.
func numSwitches(b Topology) int {
	switch b := b.(type) {
	case Star:
		return 1
	case FatTree:
		return 5 * b.K * b.K / 4 // core + agg + edge
	case BCube:
		return (b.K + 1) * b.NumHosts() / b.N // k+1 levels of n^k
	case CamCube:
		return 0 // server-only
	case FlattenedButterfly:
		return b.Rows * b.Cols
	}
	panic("unknown topology " + b.Name())
}

// degreeSpec gives the expected degree of every node in a regular
// topology: hostDeg for hosts, switchDeg for switches. A negative value
// skips the check for that kind.
type degreeSpec struct {
	hostDeg, switchDeg int
}

// checkTopology asserts the three structural properties for one built
// instance: declared counts, full connectivity (every node reachable
// from the first host under the family's transit rules), and degree
// regularity.
func checkTopology(t *testing.T, b Topology, deg degreeSpec) {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", b.Name(), err)
	}
	hosts, switches := g.Hosts(), g.Switches()
	if len(hosts) != b.NumHosts() {
		t.Errorf("%s: built %d hosts, declared %d", b.Name(), len(hosts), b.NumHosts())
	}
	if len(switches) != numSwitches(b) {
		t.Errorf("%s: built %d switches, want %d", b.Name(), len(switches), numSwitches(b))
	}
	if err := g.Validate(); err != nil {
		t.Errorf("%s: %v", b.Name(), err)
	}
	// Connectivity: every node (not just hosts) must be reachable from
	// the first host — an unreachable switch would be dead hardware the
	// power model still bills for.
	for n := 0; n < g.NumNodes(); n++ {
		if g.HopCount(hosts[0], NodeID(n)) < 0 {
			t.Errorf("%s: node %d (%s) unreachable from host 0",
				b.Name(), n, g.Name(NodeID(n)))
		}
	}
	for _, h := range hosts {
		if deg.hostDeg >= 0 && g.Degree(h) != deg.hostDeg {
			t.Errorf("%s: host %s degree %d, want %d",
				b.Name(), g.Name(h), g.Degree(h), deg.hostDeg)
		}
	}
	for _, sw := range switches {
		if deg.switchDeg >= 0 && g.Degree(sw) != deg.switchDeg {
			t.Errorf("%s: switch %s degree %d, want %d",
				b.Name(), g.Name(sw), g.Degree(sw), deg.switchDeg)
		}
	}
}

func TestStarProperties(t *testing.T) {
	for _, hosts := range []int{1, 2, 3, 8, 24, 64} {
		t.Run(fmt.Sprint(hosts), func(t *testing.T) {
			checkTopology(t, Star{Hosts: hosts}, degreeSpec{hostDeg: 1, switchDeg: hosts})
		})
	}
}

func TestFatTreeProperties(t *testing.T) {
	// Every switch in a k-ary fat-tree has exactly k ports: edge
	// (k/2 hosts + k/2 aggs), agg (k/2 edges + k/2 cores), core (one
	// link per pod).
	for _, k := range []int{2, 4, 6, 8} {
		t.Run(fmt.Sprint(k), func(t *testing.T) {
			f := FatTree{K: k}
			checkTopology(t, f, degreeSpec{hostDeg: 1, switchDeg: k})
			if want := k * k * k / 4; f.NumHosts() != want {
				t.Errorf("NumHosts() = %d, want k^3/4 = %d", f.NumHosts(), want)
			}
		})
	}
}

func TestBCubeProperties(t *testing.T) {
	// BCube(n, k): hosts have k+1 ports (one per level), switches n.
	for _, c := range []BCube{
		{N: 2, K: 0}, {N: 2, K: 1}, {N: 2, K: 2},
		{N: 3, K: 1}, {N: 4, K: 1}, {N: 3, K: 2},
	} {
		t.Run(c.Name(), func(t *testing.T) {
			checkTopology(t, c, degreeSpec{hostDeg: c.K + 1, switchDeg: c.N})
		})
	}
}

func TestCamCubeProperties(t *testing.T) {
	// The 3D torus links each host once per direction per dimension,
	// except that a dimension of exactly 2 collapses the +1 and −1
	// neighbors into one link.
	for _, c := range []CamCube{
		{X: 2, Y: 2, Z: 2}, {X: 3, Y: 2, Z: 2}, {X: 3, Y: 3, Z: 3},
		{X: 4, Y: 3, Z: 2}, {X: 4, Y: 4, Z: 4},
	} {
		deg := 0
		for _, dim := range [...]int{c.X, c.Y, c.Z} {
			if dim > 2 {
				deg += 2
			} else {
				deg++
			}
		}
		t.Run(c.Name(), func(t *testing.T) {
			checkTopology(t, c, degreeSpec{hostDeg: deg, switchDeg: -1})
		})
	}
}

func TestFlattenedButterflyProperties(t *testing.T) {
	// Routers connect their hosts plus every other router in their row
	// and column.
	for _, f := range []FlattenedButterfly{
		{Rows: 1, Cols: 1, Concentration: 1},
		{Rows: 2, Cols: 2, Concentration: 1},
		{Rows: 2, Cols: 3, Concentration: 2},
		{Rows: 4, Cols: 4, Concentration: 3},
	} {
		t.Run(f.Name(), func(t *testing.T) {
			swDeg := f.Concentration + (f.Rows - 1) + (f.Cols - 1)
			checkTopology(t, f, degreeSpec{hostDeg: 1, switchDeg: swDeg})
		})
	}
}

// TestBuilderParameterValidation: out-of-range shapes must error, never
// build a malformed graph or panic.
func TestBuilderParameterValidation(t *testing.T) {
	bad := []Topology{
		Star{Hosts: 0},
		FatTree{K: 3},  // odd
		FatTree{K: 0},  // below minimum
		FatTree{K: -2}, // negative
		BCube{N: 1, K: 1},
		BCube{N: 2, K: -1},
		CamCube{X: 1, Y: 2, Z: 2},
		CamCube{X: 2, Y: 2, Z: 0},
		FlattenedButterfly{Rows: 0, Cols: 1, Concentration: 1},
		FlattenedButterfly{Rows: 1, Cols: 1, Concentration: 0},
	}
	for _, b := range bad {
		if g, err := b.Build(); err == nil {
			t.Errorf("%s: Build accepted invalid parameters (graph: %d nodes)", b.Name(), g.NumNodes())
		}
	}
}

// TestCheckRejectsWithoutBuilding: Check is the whole of what Build
// refuses, decided from the shape parameters alone — an illegal shape,
// and a size beyond MaxNodes however the product would wrap an int. The
// 2,642,246-ary fat-tree is the scenario file that asked for 2.1 TB.
func TestCheckRejectsWithoutBuilding(t *testing.T) {
	const huge = math.MaxInt/2 + 12345
	for _, b := range []Topology{
		Star{Hosts: 0}, Star{Hosts: MaxNodes + 1},
		FatTree{K: 3}, FatTree{K: 0}, FatTree{K: 2642246}, FatTree{K: huge},
		BCube{N: 1, K: 1}, BCube{N: 3, K: 40}, BCube{N: 2, K: huge}, BCube{N: huge, K: 2},
		CamCube{X: 1, Y: 2, Z: 2}, CamCube{X: huge, Y: huge, Z: huge}, CamCube{X: 2048, Y: 2048, Z: 2},
		FlattenedButterfly{Rows: 0, Cols: 1, Concentration: 1}, FlattenedButterfly{Rows: huge, Cols: 4, Concentration: huge},
		FlattenedButterfly{Rows: 4096, Cols: 4096, Concentration: 1},
	} {
		if err := b.Check(); err == nil {
			t.Errorf("%s: Check accepted the shape", b.Name())
		} else if _, berr := b.Build(); berr == nil || berr.Error() != err.Error() {
			t.Errorf("%s: Build said %v, Check said %v", b.Name(), berr, err)
		}
	}
	// The largest shapes in use pass: the hyperscale row and the cap itself.
	for _, b := range []Topology{FatTree{K: 160}, Star{Hosts: MaxNodes}, CamCube{X: 256, Y: 128, Z: 128}} {
		if err := b.Check(); err != nil {
			t.Errorf("%s: %v", b.Name(), err)
		}
	}
	if got := (FatTree{K: 160}).NumHosts(); got != 1_024_000 {
		t.Errorf("FatTree{160}.NumHosts() = %d", got)
	}
}
