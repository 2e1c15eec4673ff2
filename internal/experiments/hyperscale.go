package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"holdcsim/internal/core"
	"holdcsim/internal/power"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// Hyperscale pushes the scalability claim past the paper's 20K-server
// Table I row: a farm of ~1M servers where every idle server costs
// O(1) — no queued engine event, no per-dispatch walk — and exact
// least-loaded placement costs O(log N) per commitment. The run is
// server-only (CommNone), since a million-host packet network is a
// different experiment.
type HyperscaleParams struct {
	Seed uint64
	// Servers is the farm size.
	Servers int
	// Jobs bounds the run.
	Jobs int64
	// Util is the target farm utilization for the Poisson arrivals.
	Util float64
	// DelayTimer is the per-server sleep delay timer, exercising the
	// farm's shared sleep planner at full scale.
	DelayTimer simtime.Time
	// Check attaches the invariant checker (bounded deep scans and
	// farm-aggregate finalize keep it affordable at this size).
	Check bool
}

// DefaultHyperscale is the 1,024,000-server configuration.
func DefaultHyperscale() HyperscaleParams {
	return HyperscaleParams{Seed: 41, Servers: 1_024_000, Jobs: 200000, Util: 0.2,
		DelayTimer: simtime.Millisecond}
}

// QuickHyperscale shrinks the farm to 1,024 servers for tests and smoke
// runs.
func QuickHyperscale() HyperscaleParams {
	return HyperscaleParams{Seed: 41, Servers: 1024, Jobs: 5000, Util: 0.2,
		DelayTimer: simtime.Millisecond}
}

// HyperscaleResult carries the scale figures: throughput over the run
// phase, build cost, and the process's peak resident set.
type HyperscaleResult struct {
	Servers       int
	JobsCompleted int64
	EventsPerSec  float64
	BuildSeconds  float64
	RunSeconds    float64
	PeakRSSBytes  int64
}

// Hyperscale builds and runs the million-server farm.
func Hyperscale(p HyperscaleParams) (*HyperscaleResult, error) {
	sw := runner.StartStopwatch()
	prof := power.FourCoreServer()
	sc := server.DefaultConfig(prof)
	sc.DelayTimerEnabled = true
	sc.DelayTimer = p.DelayTimer
	cfg := core.Config{
		Seed:         p.Seed,
		Check:        p.Check,
		Servers:      p.Servers,
		ServerConfig: sc,
		Placer:       sched.LeastLoaded{},
		Arrivals: workload.Poisson{
			Rate: workload.UtilizationRate(p.Util, p.Servers, prof.Cores, 0.005)},
		Factory: workload.SingleTask{Service: workload.WebSearchService()},
		MaxJobs: p.Jobs,
	}
	dc, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	buildSecs := sw.Elapsed().Seconds()

	sw = runner.StartStopwatch()
	res, err := dc.Run()
	if err != nil {
		return nil, err
	}
	runSecs := sw.Elapsed().Seconds()

	out := &HyperscaleResult{
		Servers:       p.Servers,
		JobsCompleted: res.JobsCompleted,
		BuildSeconds:  buildSecs,
		RunSeconds:    runSecs,
		PeakRSSBytes:  peakRSSBytes(),
	}
	if runSecs > 0 {
		out.EventsPerSec = float64(dc.Eng.Dispatched) / runSecs
	}
	return out, nil
}

// Summary renders the scale verdict.
func (r *HyperscaleResult) Summary() string {
	return fmt.Sprintf("hyperscale: %d servers, %d jobs, %.0f events/s over %.3fs run (%.3fs build), peak RSS %.0f MiB",
		r.Servers, r.JobsCompleted, r.EventsPerSec, r.RunSeconds,
		r.BuildSeconds, float64(r.PeakRSSBytes)/(1<<20))
}

// peakRSSBytes reports the process's high-water resident set from
// /proc/self/status (VmHWM), falling back to the Go runtime's Sys
// figure on platforms without procfs.
func peakRSSBytes() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			f := strings.Fields(line)
			if len(f) >= 2 {
				if kb, err := strconv.ParseInt(f[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
