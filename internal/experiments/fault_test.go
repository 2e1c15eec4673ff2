package experiments

import (
	"os"
	"testing"

	"holdcsim/internal/fault"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
)

// TestFaultFreeEquivalence is the differential fault suite's anchor: a
// simulation with an EMPTY fault timeline must be byte-identical to the
// pre-fault code path. Every Quick preset runs with the fault injector
// explicitly attached (non-nil spec, zero events) AND the invariant
// checker on, and its full rendered output is diffed against the
// committed golden files — which were generated before the fault
// subsystem existed. Any divergence means the fault hooks perturbed an
// event, a draw, or a float on the healthy path.
func TestFaultFreeEquivalence(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run(runner.Options{}, true, &fault.Spec{})
			if err != nil {
				t.Fatalf("empty-timeline run failed: %v", err)
			}
			want, err := os.ReadFile(goldenPath(c.name))
			if err != nil {
				t.Fatalf("no golden file (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Fatalf("%s: empty fault timeline diverged from the pre-fault golden output — the fault hooks perturbed the simulation", c.name)
			}
		})
	}
}

// TestFaultedPresetHoldsLaws runs the flagship sweep under a real fault
// workload — server crashes with both orphan policies plus link flaps —
// with the invariant checker on: every failure-aware conservation law
// must hold at every point of the campaign.
func TestFaultedPresetHoldsLaws(t *testing.T) {
	for _, policy := range []sched.OrphanPolicy{sched.OrphanRequeue, sched.OrphanDrop} {
		p := QuickFig5()
		p.Utilizations = p.Utilizations[:1]
		p.Workloads = p.Workloads[:1]
		p.Check = true
		p.Faults = &fault.Spec{
			ServerCrashes: 3,
			ServerDownSec: 2,
			Orphans:       policy,
		}
		if _, err := Fig5(p); err != nil {
			t.Fatalf("policy %v: %v", policy, err)
		}
	}
}

// BenchmarkFig5EmptyFaults is the no-fault overhead probe: an
// attached-but-empty fault timeline must cost nothing next to
// BenchmarkFig5Checked.
func BenchmarkFig5EmptyFaults(b *testing.B) {
	p := QuickFig5()
	p.Exec = runner.Options{Workers: 1}
	p.Check = true
	p.Faults = &fault.Spec{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Fig5(p); err != nil {
			b.Fatal(err)
		}
	}
}
