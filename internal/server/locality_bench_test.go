package server_test

import (
	"fmt"
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/power"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/workload"
)

// BenchmarkFarmLocality runs the farm-rr shape — four-core servers,
// round-robin, single-task web-search jobs at 20% utilization, no delay
// timer — at 2,048 and at 20,480 servers with the same 300,000 jobs, and
// reports the run's nanoseconds per dispatched event (set-up is not
// timed). The two sizes do the same work per event; what the larger
// farm adds is cache misses, since each event touches a server and core
// that are ten times less likely to be in cache. The gap between the two
// rows is the cost of the records' layout (DESIGN.md Sec. 13.5).
func BenchmarkFarmLocality(b *testing.B) {
	const jobs = 300_000
	prof := power.FourCoreServer()
	for _, servers := range []int{2048, 20480} {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			cfg := core.Config{
				Seed:         1,
				Servers:      servers,
				ServerConfig: server.DefaultConfig(prof),
				Placer:       sched.RoundRobin{},
				Arrivals:     workload.Poisson{Rate: workload.UtilizationRate(0.2, servers, prof.Cores, 0.005)},
				Factory:      workload.SingleTask{Service: workload.WebSearchService()},
				MaxJobs:      jobs,
			}
			var events uint64
			for range b.N {
				b.StopTimer()
				dc, err := core.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := dc.Run(); err != nil {
					b.Fatal(err)
				}
				events += dc.Eng.Dispatched
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}
