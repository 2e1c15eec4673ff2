//go:build !race

package server_test

import (
	"fmt"
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// dialPoisson is a Poisson arrival process whose rate the test turns
// mid-run: a burst of overload grows every queue and free list to its
// high-water mark, then the Table I load runs against warm storage.
type dialPoisson struct{ rate *float64 }

func (d dialPoisson) Next(r *rng.Source) float64 { return r.Exp(1 / *d.rate) }
func (d dialPoisson) String() string             { return fmt.Sprintf("dial(λ=%g/s)", *d.rate) }

// TestTableISteadyStateZeroAlloc is the CI gate for the path every
// experiment runs — arrival → job → placement → core wake → run →
// finish → completion statistics → C1 → C3 → C6 — on Table I's shape
// (four-core servers, round-robin, single-task jobs, no delay timer),
// built by core.Build as the experiments build it, latency tally
// included. Once every core has been through the cycle, whole job
// cycles must allocate nothing: jobs are recycled, the arrival and the
// per-core callbacks are bound once, a server is one flat record whose
// residency is indexed by state id. The race detector inserts
// allocations, so this runs only in the non-race job.
func TestTableISteadyStateZeroAlloc(t *testing.T) {
	const servers = 256
	prof := power.FourCoreServer()
	rate := workload.UtilizationRate(0.9, servers, prof.Cores, 0.005)
	dc, err := core.Build(core.Config{
		Seed:         1,
		Servers:      servers,
		ServerConfig: server.DefaultConfig(prof),
		Placer:       sched.RoundRobin{},
		Arrivals:     dialPoisson{&rate},
		Factory:      workload.SingleTask{Service: workload.WebSearchService()},
		MaxJobs:      1 << 20, // never reached; sizes the latency tally
	})
	if err != nil {
		t.Fatal(err)
	}
	dc.Gen.Start()
	// Overload: every core runs, every server queues, and the clock
	// crosses the engine's whole bucket ring.
	dc.Eng.RunUntil(400 * simtime.Millisecond)
	// Table I's load, long enough for the backlog to drain and for idle
	// cores to walk down to C6 and be woken again.
	rate = workload.UtilizationRate(0.2, servers, prof.Cores, 0.005)
	dc.Eng.RunUntil(800 * simtime.Millisecond)
	for _, srv := range dc.Servers {
		for i := 0; i < srv.Cores(); i++ {
			if srv.CoreCompleted(i) == 0 {
				t.Fatalf("warm-up left server %d core %d unused", srv.ID(), i)
			}
		}
		if fr := srv.Residency().FractionsTo(dc.Eng.Now()); fr[server.StatePkgC6] == 0 || fr[server.StateWakeUp] == 0 {
			t.Fatalf("warm-up never took server %d through PkgC6 and a core wake: %v", srv.ID(), fr)
		}
	}

	done := dc.Sched.JobsCompleted()
	allocs := testing.AllocsPerRun(10, func() {
		dc.Eng.RunUntil(dc.Eng.Now() + 20*simtime.Millisecond)
	})
	if jobs := dc.Sched.JobsCompleted() - done; jobs < 5000 {
		t.Fatalf("measured window completed only %d jobs", jobs)
	}
	if allocs != 0 {
		t.Fatalf("steady-state Table I run allocates %v per 20 ms window (~800 jobs), want 0", allocs)
	}
}
