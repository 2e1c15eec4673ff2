package server_test

import (
	"testing"

	"holdcsim/internal/engine"
	"holdcsim/internal/invariant"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// buildScanRig wires a data center larger than the checker's scan
// budget: deep scans visit at most 256 servers per observation boundary
// instead of all 320.
func buildScanRig(t *testing.T) (*engine.Engine, []*server.Server, *workload.Generator, *invariant.Checker) {
	t.Helper()
	const n = 320
	eng := engine.New()
	f := server.NewFarm(eng)
	farm := make([]*server.Server, n)
	for i := range farm {
		srv, err := f.Add(i, server.DefaultConfig(power.FourCoreServer()))
		if err != nil {
			t.Fatal(err)
		}
		farm[i] = srv
	}
	s, err := sched.New(eng, farm, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewGenerator(eng, rng.New(11), workload.Poisson{Rate: 2000},
		workload.SingleTask{Service: workload.WebSearchService()}, s.JobArrived)
	gen.MaxJobs = 400
	c := invariant.Attach(eng, gen, s, farm, nil, invariant.Options{})
	return eng, farm, gen, c
}

// Tamper gate for the bounded deep scan: a corrupted per-server queue
// counter must still be detected even though each scan samples only a
// handful of servers — the rotating cursor guarantees every server is
// eventually visited even if dispatch traffic never marks it dirty.
func TestSampledScanCatchesCorruptedCounter(t *testing.T) {
	eng, farm, gen, c := buildScanRig(t)
	farm[37].CorruptQueueCounterForTest(3)
	gen.Start()
	eng.Run()
	c.Finalize(eng.Now())
	found := false
	for _, v := range c.Violations() {
		if v.Law == "queue-counter" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("corrupted queue counter on server 37 escaped the sampled deep scan: %v", c.Violations())
	}
}

// The same gate for the per-core cached draws recompute sums: a cache
// that no longer matches its core's state is reported, here on a server
// the round-robin cursor has to reach on its own.
func TestSampledScanCatchesStalePowerCache(t *testing.T) {
	eng, farm, gen, c := buildScanRig(t)
	gen.Start()
	eng.RunUntil(eng.Now() + 20*simtime.Millisecond)
	farm[41].CorruptCoreDrawForTest(0.5)
	eng.Run()
	c.Finalize(eng.Now())
	for _, v := range c.Violations() {
		if v.Law == "power-cache" {
			return
		}
	}
	t.Fatalf("stale core draw on server 41 escaped the sampled deep scan: %v", c.Violations())
}

// The same bounded rig without tampering must stay clean — sampling
// must not introduce false positives.
func TestSampledScanCleanRun(t *testing.T) {
	eng, _, gen, c := buildScanRig(t)
	gen.Start()
	eng.Run()
	if v := c.Finalize(eng.Now()); len(v) != 0 {
		t.Fatalf("clean bounded-scan run reported violations: %v", v)
	}
}
