//go:build !race

package server_test

import (
	"reflect"
	"runtime"
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/power"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/workload"
)

// The size contract of a built farm (DESIGN.md Sec. 13.5): a server
// record is 272 bytes, a core 56, and a Table I farm leaves at most
// maxBytesPerServer on the heap per server once built — server and core
// records, residency durations, each core's pending idle promotion in
// the engine and the latency tally's reserve; and building it allocates
// next to nothing per server: records come from blocks, and a core is
// its own event handler.
const (
	maxServerSize     = 272
	maxCoreSize       = 56
	maxBytesPerServer = 1000
)

// TestTableIServerBytes is the size gate beside the allocation gates: it
// builds a farm-rr-shaped data center (four-core servers, round-robin,
// single-task jobs, no delay timer, ~15 jobs a server) through
// core.Build and fails when the heap it leaves per server, or the
// Server or Core record, grows past the bars above. The race detector
// changes what the heap holds, so this runs only in the non-race job.
func TestTableIServerBytes(t *testing.T) {
	if got := reflect.TypeFor[server.Server]().Size(); got > maxServerSize {
		t.Errorf("server.Server is %d bytes, want at most %d", got, maxServerSize)
	}
	if got := reflect.TypeFor[server.Core]().Size(); got > maxCoreSize {
		t.Errorf("server.Core is %d bytes, want at most %d", got, maxCoreSize)
	}

	const servers = 4096
	prof := power.FourCoreServer()
	cfg := core.Config{
		Seed:         1,
		Servers:      servers,
		ServerConfig: server.DefaultConfig(prof),
		Placer:       sched.RoundRobin{},
		Arrivals:     workload.Poisson{Rate: workload.UtilizationRate(0.2, servers, prof.Cores, 0.005)},
		Factory:      workload.SingleTask{Service: workload.WebSearchService()},
		MaxJobs:      15 * servers,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	dc, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(dc)
	perServer := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / servers
	allocs := float64(after.Mallocs-before.Mallocs) / servers
	t.Logf("%.0f heap bytes and %.2f allocations per server", perServer, allocs)
	if perServer > maxBytesPerServer {
		t.Errorf("a built Table I farm holds %.0f heap bytes per server, want at most %d", perServer, maxBytesPerServer)
	}
	if allocs > 0.25 {
		t.Errorf("building a Table I farm allocates %.2f objects per server, want at most 0.25", allocs)
	}
}
