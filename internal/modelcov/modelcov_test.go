package modelcov

import (
	"reflect"
	"strings"
	"testing"

	"holdcsim/internal/power"
)

// TestNilMapIsInert holds the promise every model package leans on: a
// disabled hook is a nil *Map, and any exported method on it — today's
// and any added later — is callable without the caller re-checking.
func TestNilMapIsInert(t *testing.T) {
	var m *Map
	v := reflect.ValueOf(m)
	for i := 0; i < v.NumMethod(); i++ {
		method := v.Type().Method(i)
		args := make([]reflect.Value, 0, method.Type.NumIn()-1)
		for j := 1; j < method.Type.NumIn(); j++ {
			args = append(args, reflect.Zero(method.Type.In(j)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Map)(nil).%s panicked: %v", method.Name, r)
				}
			}()
			v.Method(i).Call(args)
		}()
	}
	if v.NumMethod() < 8 {
		t.Fatalf("reflection saw %d exported methods on *Map, want at least 8", v.NumMethod())
	}

	m.Hit(SrvTransition(0, 1))
	if m.Covered() != 0 || m.Count(NetPktDelivered) != 0 {
		t.Fatalf("nil map reported coverage")
	}
	if got := m.Merge(&Map{}); got != 0 {
		t.Fatalf("nil merge gain = %d, want 0", got)
	}
	if !strings.Contains(m.Report(0), "0/") {
		t.Fatalf("nil report: %q", m.Report(0))
	}
}

func TestHitCountAndBounds(t *testing.T) {
	var m Map
	m.Hit(NetPktDelivered)
	m.Hit(NetPktDelivered)
	if got := m.Count(NetPktDelivered); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if m.Covered() != 1 {
		t.Fatalf("covered = %d, want 1", m.Covered())
	}
	// Invalid features are ignored, not panics.
	m.Hit(Feature(-1))
	m.Hit(Feature(NumFeatures))
	m.Hit(SrvTransition(-1, 3))
	m.Hit(SrvTransition(2, NumSrvStates))
	m.Hit(Fault(6, false))
	m.Hit(Fault(-2, true))
	m.Hit(CascadeDepth(0))
	if m.Covered() != 1 {
		t.Fatalf("invalid hits changed coverage: %d", m.Covered())
	}
}

func TestSaturation(t *testing.T) {
	var m Map
	m.counts[int(NetPktDelivered)] = ^uint32(0) - 1
	m.Hit(NetPktDelivered)
	m.Hit(NetPktDelivered) // saturates
	if got := m.Count(NetPktDelivered); got != ^uint32(0) {
		t.Fatalf("count = %d, want saturation", got)
	}
	var o Map
	o.Hit(NetPktDelivered)
	m.Merge(&o) // saturating add must not wrap
	if got := m.Count(NetPktDelivered); got != ^uint32(0) {
		t.Fatalf("merged count wrapped: %d", got)
	}
}

func TestMergeGain(t *testing.T) {
	var global, a, b, c Map
	a.Hit(SwitchSleep)
	a.Hit(SwitchWake)
	if gain := global.Merge(&a); gain != 2 {
		t.Fatalf("first merge gain = %d, want 2", gain)
	}
	b.Hit(SwitchSleep) // already known, same magnitude: no gain
	b.Hit(PortLPIEnter)
	if gain := global.Merge(&b); gain != 1 {
		t.Fatalf("second merge gain = %d, want 1", gain)
	}
	// A run that drives a known feature into a higher magnitude class
	// is progress; the merged map keeps the per-run peak.
	c.Hit(SwitchSleep)
	c.Hit(SwitchSleep)
	c.Hit(SwitchSleep)
	if gain := global.Merge(&c); gain != 1 {
		t.Fatalf("magnitude-record merge gain = %d, want 1", gain)
	}
	if global.Count(SwitchSleep) != 3 {
		t.Fatalf("merged count = %d, want peak 3", global.Count(SwitchSleep))
	}
	if gain := global.Merge(&b); gain != 0 {
		t.Fatalf("re-merge gain = %d, want 0", gain)
	}
	if gain := global.Merge(nil); gain != 0 {
		t.Fatalf("nil merge gain = %d", gain)
	}
}

func TestBucketClasses(t *testing.T) {
	cases := []struct {
		c    uint32
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 20, 21}, {^uint32(0), 32}}
	for _, tc := range cases {
		if got := Bucket(tc.c); got != tc.want {
			t.Fatalf("Bucket(%d) = %d, want %d", tc.c, got, tc.want)
		}
	}
}

func TestBucketEdges(t *testing.T) {
	cases := []struct {
		n    int
		want Feature
	}{
		{-3, QueueDepth(0)}, {0, QueueDepth(0)}, {1, QueueDepth(1)},
		{2, QueueDepth(2)}, {3, QueueDepth(3)}, {4, QueueDepth(3)},
		{5, QueueDepth(8)}, {8, QueueDepth(8)}, {9, QueueDepth(16)},
		{16, QueueDepth(16)}, {17, QueueDepth(32)}, {32, QueueDepth(32)},
		{33, QueueDepth(1000)},
	}
	for _, c := range cases {
		if got := QueueDepth(c.n); got != c.want {
			t.Fatalf("QueueDepth(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if QueueDepth(0) == GlobalQueueDepth(0) {
		t.Fatalf("queue and global-queue buckets collide")
	}
}

func TestCascadeDepthBuckets(t *testing.T) {
	if CascadeDepth(1) != CascadeDepth1 || CascadeDepth(2) != CascadeDepth2 {
		t.Fatalf("cascade depth mapping wrong")
	}
	if CascadeDepth(3) != CascadeDepth3Plus || CascadeDepth(9) != CascadeDepth3Plus {
		t.Fatalf("deep cascade mapping wrong")
	}
}

// Every feature must carry a distinct, non-empty name: the report and
// the corpus notes lean on names as identifiers.
func TestNamesDistinctAndComplete(t *testing.T) {
	seen := make(map[string]Feature, NumFeatures)
	for i := 0; i < NumFeatures; i++ {
		f := Feature(i)
		n := Name(f)
		if n == "" || strings.HasPrefix(n, "invalid") {
			t.Fatalf("feature %d has no name", i)
		}
		if prev, dup := seen[n]; dup {
			t.Fatalf("features %d and %d share name %q", prev, f, n)
		}
		seen[n] = f
	}
	if !strings.HasPrefix(Name(Feature(-5)), "invalid") {
		t.Fatalf("invalid feature name: %q", Name(Feature(-5)))
	}
}

func TestSrvStateIndexAndTransition(t *testing.T) {
	if power.ServerStates[0] != "Active" || power.ServerStates[NumSrvStates-1] != "Down" {
		t.Fatalf("state index mapping moved")
	}
	if got := Name(SrvTransition(2, 3)); got != "srv/Idle->PkgC6" {
		t.Fatalf("transition name = %q", got)
	}
}

// Fault features are named by the fault.Spec class of their domain, in
// fault.ScopeKind order, down before up.
func TestFaultNames(t *testing.T) {
	for f, want := range map[Feature]string{
		Fault(0, false): "fault/server-down",
		Fault(3, true):  "fault/subtree-up",
		Fault(4, false): "fault/link-down",
		Fault(5, true):  "fault/switch-up",
	} {
		if got := Name(f); got != want {
			t.Errorf("Name(%d) = %q, want %q", f, got, want)
		}
	}
}

func TestNeverHitAndReport(t *testing.T) {
	var m Map
	m.Hit(NetFlowComplete)
	never := m.NeverHit()
	if len(never) != NumFeatures-1 {
		t.Fatalf("never-hit = %d, want %d", len(never), NumFeatures-1)
	}
	r := m.Report(5)
	if !strings.Contains(r, "1/") || !strings.Contains(r, "never hit") {
		t.Fatalf("report: %q", r)
	}
	if got := strings.Count(r, "\n  "); got > 6 {
		t.Fatalf("report listed %d features, want <= 5-ish", got)
	}
}
