package experiments

import "testing"

func TestQuickHyperscale(t *testing.T) {
	p := QuickHyperscale()
	p.Check = true // bounded scans + farm aggregates must stay clean
	r, err := Hyperscale(p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Servers != 1024 {
		t.Errorf("servers = %d, want 1024", r.Servers)
	}
	if r.JobsCompleted != p.Jobs {
		t.Errorf("completed %d of %d jobs", r.JobsCompleted, p.Jobs)
	}
	if r.EventsPerSec <= 0 {
		t.Error("no event throughput measured")
	}
	if r.PeakRSSBytes <= 0 {
		t.Error("no peak RSS measured")
	}
	if r.Summary() == "" {
		t.Error("empty summary")
	}
}
