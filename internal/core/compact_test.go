package core

import (
	"reflect"
	"testing"

	"holdcsim/internal/stats"
)

// Above CompactStatsAbove the collector must degrade gracefully: the
// latency tally becomes a bounded reservoir with exact moments, and
// the per-server energy breakdown is omitted — while every aggregate
// stays identical to the full-fidelity run of the same seed.
func TestCompactStatsAboveThreshold(t *testing.T) {
	full := baseConfig()
	full.Servers = 8
	full.MaxJobs = 300

	dcF, err := Build(full)
	if err != nil {
		t.Fatal(err)
	}
	rF, err := dcF.Run()
	if err != nil {
		t.Fatal(err)
	}
	dcC, err := build(full, 4) // 8 servers > 4 → hyperscale mode
	if err != nil {
		t.Fatal(err)
	}
	rC, err := dcC.Run()
	if err != nil {
		t.Fatal(err)
	}

	if rF.PerServer == nil || len(rF.PerServer) != 8 {
		t.Fatalf("full run lost its per-server breakdown: %v", rF.PerServer)
	}
	if rC.PerServer != nil {
		t.Fatalf("compact run kept a per-server breakdown of %d entries", len(rC.PerServer))
	}
	// Whether a tally's memory is bounded is its own business; the test
	// reads the unexported reservoir capacity.
	bounded := func(ta *stats.Tally) bool {
		return reflect.ValueOf(ta).Elem().FieldByName("resCap").Int() > 0
	}
	if bounded(rF.Latency) {
		t.Fatalf("full run's latency tally is bounded")
	}
	if !bounded(rC.Latency) {
		t.Fatalf("compact run's latency tally retains every sample")
	}

	// Same seed, same simulation: scalar aggregates and exact moments
	// must agree bit for bit; only percentile fidelity may differ.
	if rF.End != rC.End || rF.JobsCompleted != rC.JobsCompleted {
		t.Fatalf("compact collection changed the simulation: end %v vs %v, jobs %d vs %d",
			rF.End, rC.End, rF.JobsCompleted, rC.JobsCompleted)
	}
	if rF.ServerEnergyJ != rC.ServerEnergyJ || rF.CPUEnergyJ != rC.CPUEnergyJ {
		t.Fatalf("energy aggregates differ: %g vs %g", rF.ServerEnergyJ, rC.ServerEnergyJ)
	}
	if rF.Latency.Count() != rC.Latency.Count() || rF.Latency.Mean() != rC.Latency.Mean() {
		t.Fatalf("latency moments differ: n %d/%d mean %g/%g",
			rF.Latency.Count(), rC.Latency.Count(), rF.Latency.Mean(), rC.Latency.Mean())
	}
	for state, f := range rF.Residency {
		if rC.Residency[state] != f {
			t.Fatalf("residency[%s] = %g vs %g", state, rC.Residency[state], f)
		}
	}
}
