package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/scenario"
)

// TestQuickHyperscale: the million-host row's quick size, the scenario
// file internal/scenario/testdata/hyperscale-1k.json, runs checked
// (bounded deep scans and farm aggregates stay clean) and is still the
// run the retired QuickHyperscale preset made: 1,024 servers, 5,000
// jobs, the same events dispatched and the same engine tier counters.
func TestQuickHyperscale(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "scenario", "testdata", "hyperscale-1k.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if dc.Checker() == nil {
		t.Fatal("the scenario built without the invariant checker")
	}
	r, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(dc.Servers) != 1024 {
		t.Errorf("servers = %d, want 1024", len(dc.Servers))
	}
	if r.JobsCompleted != 5000 {
		t.Errorf("completed %d of 5000 jobs", r.JobsCompleted)
	}
	if dc.Eng.Dispatched != 38819 {
		t.Errorf("dispatched %d events, want 38819", dc.Eng.Dispatched)
	}
	want := engine.Counters{BottomPops: 10432, BottomLen: 47431, DirectPushes: 5978,
		Rungs: 43, Splits: 1, Runs: 1939, Rebuckets: 2, LanePushes: 31336, LaneClaims: 6}
	if dc.Eng.Count != want {
		t.Errorf("engine counters %+v, want %+v", dc.Eng.Count, want)
	}
}
