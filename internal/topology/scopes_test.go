package topology

import (
	"testing"
)

func build(t *testing.T, b Topology) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkPartition verifies groups partition 0..n-1 exactly once each.
func checkPartition(t *testing.T, name string, groups [][]int, n int) {
	t.Helper()
	seen := make([]bool, n)
	for gi, g := range groups {
		prev := -1
		for _, h := range g {
			if h < 0 || h >= n {
				t.Fatalf("%s[%d]: member %d out of range [0,%d)", name, gi, h, n)
			}
			if h <= prev {
				t.Errorf("%s[%d]: members not strictly ascending: %v", name, gi, g)
			}
			prev = h
			if seen[h] {
				t.Errorf("%s: member %d in two groups", name, h)
			}
			seen[h] = true
		}
	}
	for h, ok := range seen {
		if !ok {
			t.Errorf("%s: member %d in no group", name, h)
		}
	}
}

func TestScopeMapFatTree(t *testing.T) {
	// k=4 fat tree: 16 hosts, 8 edge switches (racks of 2), 4 pods.
	sm := NewScopeMap(build(t, FatTree{K: 4}))
	if sm.NumRacks() != 8 {
		t.Errorf("racks = %d, want 8", sm.NumRacks())
	}
	if len(sm.PodHosts) != 4 {
		t.Errorf("pods = %d, want 4", len(sm.PodHosts))
	}
	for r, hs := range sm.RackHosts {
		if len(hs) != 2 {
			t.Errorf("rack %d has %d hosts, want 2", r, len(hs))
		}
		if sm.RackSwitch[r] < 0 {
			t.Errorf("rack %d has no ToR", r)
		}
	}
	for p, hs := range sm.PodHosts {
		if len(hs) != 4 {
			t.Errorf("pod %d has %d hosts, want 4", p, len(hs))
		}
		// Edge + aggregation per pod; cores are level 3 and belong to none.
		if len(sm.PodSwitches[p]) != 4 {
			t.Errorf("pod %d has %d switches, want 4", p, len(sm.PodSwitches[p]))
		}
	}
	checkPartition(t, "RackHosts", sm.RackHosts, 16)
	checkPartition(t, "PodHosts", sm.PodHosts, 16)
	for h := range sm.RackOf {
		if sm.RackOf[h] < 0 || sm.RackOf[h] >= sm.NumRacks() {
			t.Errorf("RackOf[%d] = %d out of range", h, sm.RackOf[h])
		}
		if sm.PodOf[h] < 0 || sm.PodOf[h] >= len(sm.PodHosts) {
			t.Errorf("PodOf[%d] = %d out of range", h, sm.PodOf[h])
		}
	}
}

func TestScopeMapStar(t *testing.T) {
	// A star is one rack under the hub, one pod.
	sm := NewScopeMap(build(t, Star{Hosts: 6}))
	if sm.NumRacks() != 1 || len(sm.RackHosts[0]) != 6 {
		t.Errorf("racks = %v", sm.RackHosts)
	}
	if len(sm.PodHosts) != 1 || len(sm.PodHosts[0]) != 6 {
		t.Errorf("pods = %v", sm.PodHosts)
	}
	if sm.Level[0] != 1 {
		t.Errorf("hub level = %d, want 1", sm.Level[0])
	}
	if len(sm.AttachedHosts[0]) != 6 {
		t.Errorf("hub subtree = %v, want all 6 hosts", sm.AttachedHosts[0])
	}
}

func TestScopeMapCamCubeFallback(t *testing.T) {
	// CamCube has no switches: racks are fixed blocks, one pod total.
	sm := NewScopeMap(build(t, CamCube{X: 3, Y: 3, Z: 2})) // 18 hosts
	wantRacks := (18 + FallbackRackSize - 1) / FallbackRackSize
	if sm.NumRacks() != wantRacks {
		t.Errorf("racks = %d, want %d", sm.NumRacks(), wantRacks)
	}
	for r, hs := range sm.RackHosts {
		if sm.RackSwitch[r] != -1 {
			t.Errorf("fallback rack %d has ToR %d", r, sm.RackSwitch[r])
		}
		if r < sm.NumRacks()-1 && len(hs) != FallbackRackSize {
			t.Errorf("fallback rack %d has %d hosts, want %d", r, len(hs), FallbackRackSize)
		}
	}
	if len(sm.PodHosts) != 1 || len(sm.PodHosts[0]) != 18 {
		t.Errorf("pods = %v, want one pod of 18", sm.PodHosts)
	}
	checkPartition(t, "RackHosts", sm.RackHosts, 18)
}

func TestScopeMapBCube(t *testing.T) {
	// BCube(2,1): 4 hosts, 4 switches, no switch-switch links, so every
	// switch is its own pod component and every host attaches to k+1
	// switches (rack = first-listed).
	sm := NewScopeMap(build(t, BCube{N: 2, K: 1}))
	if sm.NumRacks() != 2 {
		t.Errorf("racks = %d, want 2 (level-0 switches)", sm.NumRacks())
	}
	checkPartition(t, "RackHosts", sm.RackHosts, 4)
	checkPartition(t, "PodHosts", sm.PodHosts, 4)
	for s, hs := range sm.AttachedHosts {
		if len(hs) != 2 {
			t.Errorf("switch %d subtree = %v, want 2 hosts", s, hs)
		}
	}
}

func TestScopeMapDeterministic(t *testing.T) {
	a := NewScopeMap(build(t, FatTree{K: 4}))
	b := NewScopeMap(build(t, FatTree{K: 4}))
	for r := range a.RackHosts {
		for i := range a.RackHosts[r] {
			if a.RackHosts[r][i] != b.RackHosts[r][i] {
				t.Fatalf("rack %d differs across identical builds", r)
			}
		}
	}
	for p := range a.PodSwitches {
		for i := range a.PodSwitches[p] {
			if a.PodSwitches[p][i] != b.PodSwitches[p][i] {
				t.Fatalf("pod %d switch set differs across identical builds", p)
			}
		}
	}
}
