package sched

import (
	"testing"

	"holdcsim/internal/job"
	"holdcsim/internal/simtime"
)

// BenchmarkPlaceTableI runs place → submit → complete cycles, one
// single-task job per iteration, on a farm of Table I's size (20,480
// four-core servers) under each policy whose placement reads an index
// kept per server: the load tree (least-loaded), the load levels
// (global queue; pack-first and dual timer, with the asleep set) and
// the pool trees (provisioner, adaptive pool). A long-running job per server is
// admitted first, so the indexes hold a loaded farm and the policies'
// thresholds are in band. An iteration is one job's whole cycle, so the
// indexes' upkeep shows as its share of a cycle at a size a 50-server
// run does not reach.
func BenchmarkPlaceTableI(b *testing.B) {
	const n = 20480
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"leastloaded", func() Config { return Config{Placer: LeastLoaded{}} }},
		{"packfirst", func() Config { return Config{Placer: PackFirst{}} }},
		{"dualtimer", func() Config {
			return Config{Placer: NewDualTimer(n/2, simtime.Second, simtime.Millisecond)}
		}},
		{"provisioner", func() Config { return Config{Placer: NewProvisioner(0.5, 4)} }},
		{"adaptive", func() Config { return Config{Placer: NewAdaptivePool(2, 0.5, simtime.Millisecond)} }},
		{"globalqueue", func() Config { return Config{Placer: LeastLoaded{}, UseGlobalQueue: true} }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng, servers := testFarm(b, n, nil)
			s, err := New(eng, servers, tc.cfg())
			if err != nil {
				b.Fatal(err)
			}
			var jobs job.Pool
			s.OnJobDone(jobs.Put)
			id := job.ID(0)
			for range n {
				s.JobArrived(jobs.Single(id, eng.Now(), 1e6*simtime.Second))
				id++
			}
			// Let the transitions the admissions set off settle (the dual
			// timer's low pool takes seconds to suspend).
			eng.RunUntil(10 * simtime.Second)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				j := jobs.Single(id, eng.Now(), simtime.Millisecond)
				id++
				s.JobArrived(j)
				for !j.Done() && eng.Step() {
				}
			}
			b.StopTimer()
			if s.JobsCompleted() != int64(b.N) {
				b.Fatalf("%d of %d jobs completed", s.JobsCompleted(), b.N)
			}
		})
	}
}
