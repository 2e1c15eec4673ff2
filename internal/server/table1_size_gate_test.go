//go:build !race

package server_test

import (
	"reflect"
	"runtime"
	"testing"

	"holdcsim/internal/core"
	"holdcsim/internal/engine"
	"holdcsim/internal/power"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// The size contract of a built farm (DESIGN.md Sec. 13.5): a server
// record is at most 272 bytes besides its residency durations (kept in
// its tracker, one per power.ServerStates label), a core
// at most 56 besides its event record, and a Table I farm leaves at most
// maxBytesPerServer on the heap per server once built — server and core
// records, each core's pending idle promotion in its record and the
// latency tally's reserve; and building it allocates next to nothing per
// server: records come from blocks, and a core is its own event handler
// and holds its own event.
const (
	maxServerState    = 272
	maxCoreState      = 56
	maxBytesPerServer = 890
)

// partSize is the size of the field of T at path, a field name and the
// names of fields within it: a part of a record the size contract
// counts apart from its state.
func partSize[T any](t *testing.T, path ...string) uintptr {
	typ := reflect.TypeFor[T]()
	for _, name := range path {
		f, ok := typ.FieldByName(name)
		if !ok {
			t.Fatalf("%v has no field %s", typ, name)
		}
		typ = f.Type
	}
	return typ.Size()
}

// TestTableIServerBytes is the size gate beside the allocation gates: it
// builds a farm-rr-shaped data center (four-core servers, round-robin,
// single-task jobs, no delay timer, ~15 jobs a server) through
// core.Build and fails when the heap it leaves per server, or the
// Server or Core record less the parts named above, grows past the bars
// above. The race detector changes what the heap holds, so this runs
// only in the non-race job.
func TestTableIServerBytes(t *testing.T) {
	durs := partSize[server.Server](t, "residency", "dur")
	if want := reflect.TypeFor[[len(power.ServerStates)]simtime.Time]().Size(); durs != want {
		t.Errorf("server.Server's durations are %d bytes, want %d", durs, want)
	}
	if got := reflect.TypeFor[server.Server]().Size() - durs; got > maxServerState {
		t.Errorf("server.Server is %d bytes besides its %d of durations, want at most %d", got, durs, maxServerState)
	}
	ev := partSize[server.Core](t, "ev")
	if want := reflect.TypeFor[engine.Event]().Size(); ev != want {
		t.Errorf("server.Core's event record is %d bytes, want an engine.Event's %d", ev, want)
	}
	if got := reflect.TypeFor[server.Core]().Size() - ev; got > maxCoreState {
		t.Errorf("server.Core is %d bytes besides its event record, want at most %d", got, maxCoreState)
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
