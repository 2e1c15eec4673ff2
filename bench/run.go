package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"holdcsim/internal/core"
	"holdcsim/internal/invariant"
	"holdcsim/internal/runner"
	"holdcsim/internal/scenario"
	"holdcsim/internal/sched"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
)

// record is what one run of one workload reports: host-time figures,
// runtime counters, and the sim digest that must repeat exactly.
type record struct {
	SetupS    float64 `json:"setup_s"`
	RunS      float64 `json:"run_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`

	// Simulated outcomes. Attempted is jobs generated; Failed is jobs
	// neither completed nor (under configured faults) lost, or every job
	// of a point that violated an invariant.
	Jobs      int64  `json:"jobs_completed"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	Digest    string `json:"digest"`
	Servers   int    `json:"servers"`
	Note      string `json:"note,omitempty"` // first violation, if any

	// Host counters over the run phase (set-up excluded).
	Events    uint64  `json:"events"`
	Mallocs   uint64  `json:"mallocs"`
	Bytes     uint64  `json:"bytes"`
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`
	// HeapAfterBuild is HeapAlloc after set-up and a forced GC; taken
	// only on traced runs, where the extra GC cannot disturb a timing.
	HeapAfterBuild uint64 `json:"heap_after_build,omitempty"`

	// Traced runs only.
	Spans    map[string]float64 `json:"spans,omitempty"`
	Self     map[string]float64 `json:"self,omitempty"`
	CPUShare map[string]float64 `json:"cpu_share,omitempty"`
}

// simOutcome is one simulation's contribution to a record.
type simOutcome struct {
	res    *core.Results
	events uint64
	err    error
}

// runOnce decodes the workload's input file, builds, runs and digests
// it. Everything before the first event is set-up; everything from
// Gen.Start to the collected (and, when checking, finalized) results is
// the run. A non-empty traceDir makes it the traced run: spans around
// every layer call and a CPU profile, both written there.
func runOnce(w *benchWorkload, input, traceDir string) (rec record, err error) {
	traced := traceDir != ""
	var ru0 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return rec, err
	}

	var spans *recorder
	if traced {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return rec, err
		}
		prof, err := os.Create(filepath.Join(traceDir, "cpu-"+w.name+".pprof"))
		if err != nil {
			return rec, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return rec, err
		}
		defer pprof.StopCPUProfile() // no-op after the explicit stop below
		spans = newRecorder()
	}

	spans.do("bench.run", 0, 0, func(root int) {
		if w.matrix {
			err = runCampaign(&rec, input, spans, root)
		} else {
			err = runSingle(&rec, w, input, spans, root)
		}
	})
	if err != nil {
		return rec, err
	}

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return rec, err
	}
	rec.CPUS = cpuSeconds(&ru) - cpuSeconds(&ru0)
	rec.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	if runtime.GOOS == "darwin" {
		rec.PeakRSSMB = float64(ru.Maxrss) / (1 << 20)
	}

	if traced {
		pprof.StopCPUProfile()
		rec.Spans, rec.Self = spans.totals(), spans.selfTimes()
		if err := spans.writeChrome(filepath.Join(traceDir, "trace-"+w.name+".json")); err != nil {
			return rec, err
		}
		if rec.CPUShare, err = cpuShares(filepath.Join(traceDir, "cpu-"+w.name+".pprof")); err != nil {
			return rec, err
		}
	}
	return rec, nil
}

func decodeInput(path string) ([]scenario.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	scs, _, err := scenario.DecodeAny(data)
	return scs, err
}

// repeatSetup times one set-up, and where a set-up is so short that
// timer and scheduler jitter would dominate it, repeats it — up to 21
// times while the total stays under 50 ms — and reports the median. The
// last repeat's products are the ones the run uses. A farm-sized set-up
// exceeds the budget on its first pass and is timed once, so it never
// holds two farms' memory. The traced run sets up once: its spans should
// sum to its own wall time.
func repeatSetup(once bool, setUp func() error) (float64, error) {
	var samples []float64
	var total time.Duration
	for len(samples) == 0 || (!once && len(samples) < 21 && total < 50*time.Millisecond) {
		start := time.Now()
		if err := setUp(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		samples = append(samples, d.Seconds())
		total += d
	}
	return median(samples), nil
}

func cpuSeconds(ru *syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runSingle is the four single-simulation workloads: unchecked, one
// data center, one event loop.
func runSingle(rec *record, w *benchWorkload, input string, spans *recorder, root int) error {
	var dc *core.DataCenter
	var cfg core.Config
	var err error
	rec.SetupS, err = repeatSetup(spans != nil, func() (err error) {
		var scs []scenario.Scenario
		spans.do("scenario.decode", root, 0, func(int) { scs, err = decodeInput(input) })
		if err != nil {
			return err
		}
		if len(scs) != 1 {
			return fmt.Errorf("%s: input holds %d scenarios, want 1", w.name, len(scs))
		}
		spans.do("core.build", root, 0, func(int) {
			if cfg, err = scs[0].Config(); err != nil {
				return
			}
			// Config always turns checking on; the single-run workloads
			// measure the unchecked simulator (campaign covers the checker).
			cfg.Check = false
			if w.sharded {
				cfg.Placer = sched.ShardedLeastLoaded{}
			}
			if dc, err = core.Build(cfg); err != nil {
				return
			}
			if w.sharded {
				err = setRackShards(dc, cfg.Servers)
			}
		})
		return err
	})
	if err != nil {
		return err
	}
	rec.Servers = cfg.Servers
	if spans != nil {
		spans.do("bench.heap_probe", root, 0, func(int) {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			rec.HeapAfterBuild = ms.HeapAlloc
		})
	}

	out := measureRun(rec, func() []simOutcome {
		return []simOutcome{simulate(dc, cfg.Duration, spans, root, 0)}
	})
	spans.do("bench.digest", root, 0, func(int) { err = summarize(rec, out) })
	return err
}

// setRackShards derives the rack shard map the way
// experiments.Hyperscale does: a transient fat-tree of the farm's size
// gives host -> edge-switch racks; only the table survives.
func setRackShards(dc *core.DataCenter, servers int) error {
	k := int(math.Round(math.Cbrt(float64(4 * servers))))
	g, err := topology.FatTree{K: k}.Build()
	if err != nil {
		return err
	}
	sm := topology.NewScopeMap(g)
	if len(sm.RackOf) != servers {
		return fmt.Errorf("sleep-farm: %d servers is not a fat-tree host count (k=%d has %d)", servers, k, len(sm.RackOf))
	}
	shardOf := make([]int32, len(sm.RackOf))
	for i, r := range sm.RackOf {
		shardOf[i] = int32(r)
	}
	return dc.Sched.SetShards(shardOf, sm.NumRacks())
}

// runCampaign is the matrix workload: every point through the invariant
// checker over the worker pool. Set-up is the decode and expansion; the
// per-point builds belong to the run, as they do for a researcher's
// sweep.
func runCampaign(rec *record, input string, spans *recorder, root int) error {
	var scs []scenario.Scenario
	var err error
	rec.SetupS, err = repeatSetup(spans != nil, func() (err error) {
		spans.do("scenario.decode", root, 0, func(int) { scs, err = decodeInput(input) })
		return err
	})
	if err != nil {
		return err
	}
	for _, s := range scs {
		rec.Servers += s.Servers // every point builds its own farm
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > 4 {
		workers = 4
	}
	out := measureRun(rec, func() []simOutcome {
		return mapScenarios(scs, workers, spans, root)
	})
	spans.do("bench.digest", root, 0, func(int) { err = summarize(rec, out) })
	return err
}

// mapScenarios fans the points out through runner.Map. Each point is
// what Scenario.Run does — Build (checker attached), then the data
// center's Run — made here so the engine's event count is in reach.
func mapScenarios(scs []scenario.Scenario, workers int, spans *recorder, root int) []simOutcome {
	runs := make([]runner.Run[simOutcome], len(scs))
	var mapID int
	for i, s := range scs {
		runs[i] = runner.Run[simOutcome]{Key: s.Name(), Do: func(uint64) (simOutcome, error) {
			var dc *core.DataCenter
			var err error
			spans.do("core.build", mapID, i+1, func(int) { dc, err = s.Build() })
			if err != nil {
				return simOutcome{err: err}, nil
			}
			return simulate(dc, simtime.FromSeconds(s.DurationSec), spans, mapID, i+1), nil
		}}
	}
	var out []simOutcome
	spans.do("runner.map", root, 0, func(id int) {
		mapID = id
		// Point errors travel in the outcome so one bad point does not
		// hide the rest; Map itself cannot fail.
		out, _ = runner.Map(runner.Options{Workers: workers}, 0, runs)
	})
	return out
}

// simulate is core.DataCenter.Run. Untraced it is exactly that call;
// traced it is the same sequence through the exported pieces, with a
// span around each.
func simulate(dc *core.DataCenter, duration simtime.Time, spans *recorder, parent, run int) simOutcome {
	if spans == nil {
		res, err := dc.Run()
		return simOutcome{res: res, events: dc.Eng.Dispatched, err: err}
	}
	var res *core.Results
	var err error
	spans.do("workload.start", parent, run, func(int) { dc.Gen.Start() })
	spans.do("engine.run", parent, run, func(int) {
		if duration > 0 {
			dc.Eng.RunUntil(duration)
		} else {
			dc.Eng.Run()
		}
	})
	spans.do("core.collect", parent, run, func(int) { res = dc.Collect() })
	if c := dc.Checker(); c != nil {
		spans.do("invariant.finalize", parent, run, func(int) {
			c.Finalize(res.End)
			c.VerifyTotals(invariant.ReportedTotals{
				End: res.End, JobsGenerated: res.JobsGenerated, JobsCompleted: res.JobsCompleted, JobsLost: res.JobsLost,
				ServerEnergyJ: res.ServerEnergyJ, CPUEnergyJ: res.CPUEnergyJ, DRAMEnergyJ: res.DRAMEnergyJ,
				PlatformEnergyJ: res.PlatformEnergyJ, NetworkEnergyJ: res.NetworkEnergyJ,
				MeanServerPowerW: res.MeanServerPowerW, MeanNetworkPowerW: res.MeanNetworkPowerW,
				Residency: res.Residency,
			})
			err = c.Err()
		})
	}
	return simOutcome{res: res, events: dc.Eng.Dispatched, err: err}
}

// measureRun times fn and takes the runtime's allocation and GC
// counters around it.
func measureRun(rec *record, fn func() []simOutcome) []simOutcome {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	out := fn()
	rec.RunS = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	rec.Mallocs = after.Mallocs - before.Mallocs
	rec.Bytes = after.TotalAlloc - before.TotalAlloc
	rec.GCCycles = after.NumGC - before.NumGC
	rec.GCPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return out
}

// summarize folds the simulations' outcomes into the record: counts,
// failures, and the digest over every point in submission order.
func summarize(rec *record, out []simOutcome) error {
	h := sha256.New()
	for i, o := range out {
		if o.res == nil {
			return fmt.Errorf("point %d did not run: %w", i, o.err)
		}
		r := o.res
		rec.Jobs += r.JobsCompleted
		rec.Attempted += r.JobsGenerated
		rec.Events += o.events
		failed := r.JobsGenerated - r.JobsCompleted // no workload configures faults, so a lost job failed
		if o.err != nil {
			failed = r.JobsGenerated
			if rec.Note == "" {
				rec.Note = o.err.Error()
			}
		}
		rec.Failed += failed
		digestResults(h, r)
	}
	rec.Digest = fmt.Sprintf("%x", h.Sum(nil)[:8])
	return nil
}

// digestResults hashes a run's simulated statistics — never host time
// or engine internals such as the dispatched-event count, which an
// optimisation may legitimately change.
func digestResults(h io.Writer, r *core.Results) {
	fmt.Fprintf(h, "gen=%d done=%d lost=%d end=%d\n", r.JobsGenerated, r.JobsCompleted, r.JobsLost, int64(r.End))
	fmt.Fprintf(h, "lat mean=%.17g p50=%.17g p95=%.17g p99=%.17g\n",
		r.Latency.Mean(), r.Latency.Percentile(50), r.Latency.Percentile(95), r.Latency.Percentile(99))
	fmt.Fprintf(h, "energy srv=%.17g cpu=%.17g dram=%.17g plat=%.17g net=%.17g\n",
		r.ServerEnergyJ, r.CPUEnergyJ, r.DRAMEnergyJ, r.PlatformEnergyJ, r.NetworkEnergyJ)
	states := make([]string, 0, len(r.Residency))
	for s := range r.Residency {
		states = append(states, s)
	}
	sort.Strings(states)
	for _, s := range states {
		fmt.Fprintf(h, "res %s=%.17g\n", s, r.Residency[s])
	}
	n := r.NetStats
	fmt.Fprintf(h, "net sent=%d delivered=%d dropped=%d bytes=%d flows=%d/%d/%d\n",
		n.PacketsSent, n.PacketsDelivered, n.PacketsDropped, n.BytesDelivered,
		n.FlowsStarted, n.FlowsCompleted, n.FlowsFailed)
}
