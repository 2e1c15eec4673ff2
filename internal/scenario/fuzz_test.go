package scenario

import (
	"testing"
)

// FuzzScenario drives the scenario generator with fuzzed seeds and
// parameter mutations: whatever the fuzzer composes, a scenario that
// passes Validate must build, run to completion without panicking, and
// hold every conservation law. The mutation word perturbs the drawn
// scenario inside its legal ranges (mutate in search.go — the encoding
// is shared with Search) so the fuzzer explores corners the
// uniform generator visits rarely (rho near saturation, zero-job
// horizons, minimum farms, huge burst ratios, fault storms). Besides
// the pinned seeds, the corpus minimized by cmd/covsearch seeds the
// fuzzer with inputs known to reach rare model states.
func FuzzScenario(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0xdeadbeef))
	f.Add(uint64(42), uint64(7))
	f.Add(uint64(9999), uint64(1<<63))
	corpus, err := ReadCorpusDir("testdata/corpus")
	if err != nil {
		f.Fatalf("reading covsearch corpus: %v", err)
	}
	for _, e := range corpus {
		f.Add(e.Seed, e.Mut)
	}
	f.Fuzz(func(t *testing.T, seed, mut uint64) {
		s := Random(seed)
		mutate(&s, mut)
		// Hard work bound for the fuzz executor: whatever horizon the
		// mutation composed, cap generation so a single exec can never
		// trip the fuzzer's hang detector (trace- or duration-only
		// horizons on big farms otherwise derive 10^5+ jobs).
		BoundWork(&s, searchMaxJobs)
		if err := s.Validate(); err != nil {
			// An invalid mutation is fine — rejecting it cleanly is the
			// contract. Running it is not.
			return
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("seed=%d mut=%#x %s: %v", seed, mut, s.Name(), err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("seed=%d mut=%#x %s: violations %v", seed, mut, s.Name(), res.Violations)
		}
		if r := res.Results; r.JobsCompleted > r.JobsGenerated {
			t.Fatalf("seed=%d mut=%#x: completed %d > generated %d", seed, mut,
				r.JobsCompleted, r.JobsGenerated)
		}
	})
}
