package main

import (
	"fmt"
	"runtime"
	"time"

	"holdcsim/internal/core"
	"holdcsim/internal/engine"
	"holdcsim/internal/experiments"
	"holdcsim/internal/fault"
	"holdcsim/internal/job"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/rng"
	"holdcsim/internal/runner"
	"holdcsim/internal/scenario"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/stats"
	"holdcsim/internal/topology"
	"holdcsim/internal/workload"
)

// layerRow is one layer timed from outside through its exported API
// with a fixed op count. run returns one sample in the metric's unit;
// quick divides the op count so the smoke test stays short.
type layerRow struct {
	metric
	run func(scale int) (float64, error)
}

// layerRepeats is how many samples each row's median is taken over.
const layerRepeats = 5

var layerRows = []layerRow{
	{metric{name: "engine.schedule_dispatch_ns", unit: "ns", better: "lower", moves: "run_s on dag-packet first, then farm-rr"}, engineScheduleDispatch},
	{metric{name: "engine.cancel_rearm_ns", unit: "ns", better: "lower", moves: "run_s on sleep-farm"}, engineCancelRearm},
	{metric{name: "engine.timer_reset_ns", unit: "ns", better: "lower", moves: "run_s on sleep-farm"}, engineTimerReset},
	{metric{name: "engine.wide_horizon_ns", unit: "ns", better: "lower", moves: "run_s on dag-packet (spill and re-bucket)"}, engineWideHorizon},

	{metric{name: "server.submit_finish_ns", unit: "ns", better: "lower", moves: "run_s on farm-rr; flat on dag-*"}, serverSubmitFinish},
	{metric{name: "server.sleep_wake_cycle_ns", unit: "ns", better: "lower", moves: "run_s on sleep-farm; flat on dag-*"}, serverSleepWake},
	{metric{name: "server.farm_timer_churn_ns", unit: "ns", better: "lower", moves: "run_s on sleep-farm; flat on dag-*"}, serverFarmChurn},

	{metric{name: "sched.place_ns.roundrobin", unit: "ns", better: "lower", moves: "the floor farm-rr pays per job"}, placeRow(sched.RoundRobin{}, 1_000_000, false)},
	{metric{name: "sched.place_ns.leastloaded", unit: "ns", better: "lower", moves: "run_s on campaign and dag-*"}, placeRow(sched.LeastLoaded{}, 1_000, false)},
	{metric{name: "sched.place_ns.packfirst", unit: "ns", better: "lower", moves: "run_s on campaign"}, placeRow(sched.PackFirst{}, 1_000, false)},
	{metric{name: "sched.place_ns.sharded", unit: "ns", better: "lower", moves: "run_s on sleep-farm"}, placeRow(sched.ShardedLeastLoaded{}, 50_000, true)},

	{metric{name: "network.packet_hop_ns", unit: "ns", better: "lower", moves: "run_s on dag-packet only"}, networkPacketHop},
	{metric{name: "network.fluid_transfer_us.c2", unit: "us", better: "lower", moves: "run_s on dag-fluid only"}, fluidRow(2, 2_000)},
	{metric{name: "network.fluid_transfer_us.c64", unit: "us", better: "lower", moves: "run_s on dag-fluid only"}, fluidRow(64, 100)},

	{metric{name: "stats.tally_add_ns", unit: "ns", better: "lower", moves: "run_s on farm-rr"}, statsTallyAdd},
	{metric{name: "stats.tally_percentile_ms", unit: "ms", better: "lower", moves: "run_s on farm-rr (first percentile sorts every sample)"}, statsTallyPercentile},
	{metric{name: "stats.residency_setstate_ns", unit: "ns", better: "lower", moves: "run_s on farm-rr"}, statsResidency},
	{metric{name: "workload.newjob_single_ns", unit: "ns", better: "lower", moves: "run_s on farm-rr"}, newJobRow(workload.SingleTask{Service: workload.WebSearchService()}, 1_000_000)},
	{metric{name: "workload.newjob_scatter_ns", unit: "ns", better: "lower", moves: "run_s on dag-*"}, newJobRow(workload.ScatterGather{Width: 4, RootSize: workload.WebSearchService(), WorkerSize: workload.WebSearchService(), AggSize: workload.WebSearchService(), Bytes: 64 << 10}, 200_000)},

	{metric{name: "topology.fattree_build_ms", unit: "ms", better: "lower", moves: "setup_s on sleep-farm and dag-*"}, topologyFatTree},
	{metric{name: "topology.scopemap_ms", unit: "ms", better: "lower", moves: "setup_s on sleep-farm"}, topologyScopeMap},
	{metric{name: "scenario.decode_us", unit: "us", better: "lower", moves: "setup_s everywhere"}, scenarioDecode},
	{metric{name: "scenario.matrix_expand_us", unit: "us", better: "lower", moves: "setup_s on campaign"}, scenarioMatrixExpand},
	{metric{name: "scenario.build_us", unit: "us", better: "lower", moves: "run_s on campaign, which builds per point"}, scenarioBuild},
	{metric{name: "core.collect_ms", unit: "ms", better: "lower", moves: "run_s on farm-rr"}, coreCollect},

	{metric{name: "invariant.overhead_frac", unit: "ratio", better: "lower", moves: "run_s on campaign; flat on the unchecked four"},
		overheadRow(func(c *core.Config) { c.Check = true })},
	{metric{name: "modelcov.overhead_frac", unit: "ratio", better: "lower", moves: "none of the workloads collect coverage; budget 2%"},
		overheadRow(func(c *core.Config) { c.Cover = new(modelcov.Map) })},
	{metric{name: "fault.empty_overhead_frac", unit: "ratio", better: "lower", moves: "none of the workloads attach faults; budget 2%"},
		overheadRow(func(c *core.Config) { c.Faults = &fault.Spec{} })},

	{metric{name: "runner.fanout_us_per_run", unit: "us", better: "lower", moves: "run_s on campaign"}, runnerFanout},
	{metric{name: "runner.parallel_speedup", unit: "ratio", better: "higher", moves: "run_s on campaign"}, runnerSpeedup},

	{metric{name: "validate.server_mae_w", unit: "W", better: "lower", moves: "none: exact; model error against the synthetic reference"}, validateServer},
	{metric{name: "validate.switch_mae_w", unit: "W", better: "lower", moves: "none: exact; model error against the synthetic reference"}, validateSwitch},
}

// runLayerRows takes the median of layerRepeats samples of every row.
// scale > 1 shrinks the op counts (smoke test); 1 is the measured size.
func runLayerRows(scale int) (map[string]float64, error) {
	out := make(map[string]float64, len(layerRows))
	for _, r := range layerRows {
		samples := make([]float64, layerRepeats)
		for i := range samples {
			v, err := r.run(scale)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.name, err)
			}
			samples[i] = v
		}
		out[r.name] = median(samples)
		runtime.GC() // one row's garbage is not the next row's pause
	}
	return out, nil
}

// nsPerOp times fn, which performs n ops, and returns nanoseconds per op.
func nsPerOp(n int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

func ops(n, scale int) int {
	if n /= scale; n < 1 {
		return 1
	}
	return n
}

// --- engine ---------------------------------------------------------

// engineScheduleDispatch is the self-rescheduling chain: the
// schedule -> dispatch cycle every simulation is made of.
func engineScheduleDispatch(scale int) (float64, error) {
	n := ops(2_000_000, scale)
	e := engine.New()
	count := 0
	var next func()
	next = func() {
		if count++; count < n {
			e.After(simtime.Microsecond, next)
		}
	}
	return nsPerOp(n, func() {
		e.After(simtime.Microsecond, next)
		e.Run()
	}), nil
}

// engineCancelRearm is the delay-timer shape: thousands of pending
// deadlines canceled and re-armed.
func engineCancelRearm(scale int) (float64, error) {
	n := ops(2_000_000, scale)
	const pending = 4096
	e := engine.New()
	noop := func() {}
	evs := make([]engine.Handle, pending)
	for i := range evs {
		evs[i] = e.Schedule(simtime.Time(i+1)*simtime.Second, noop)
	}
	return nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			idx := i % pending
			e.Cancel(evs[idx])
			evs[idx] = e.Schedule(simtime.Time(idx+1)*simtime.Second, noop)
		}
	}), nil
}

func engineTimerReset(scale int) (float64, error) {
	n := ops(2_000_000, scale)
	tm := engine.NewTimer(engine.New(), func() {})
	return nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			tm.Reset(simtime.Second)
		}
	}), nil
}

// engineWideHorizon holds a million pending events spread at random
// over a 1000 s horizon, so most land in the spill tier and are
// re-bucketed as the clock reaches them. Per event: schedule + dispatch.
func engineWideHorizon(scale int) (float64, error) {
	n := ops(1_000_000, scale)
	e := engine.New()
	r := rng.New(1)
	noop := func() {}
	return nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			e.Schedule(simtime.FromSeconds(r.Float64()*1000), noop)
		}
		e.Run()
	}), nil
}

// --- server ---------------------------------------------------------

func newServer(eng *engine.Engine, mutate func(*server.Config)) (*server.Server, error) {
	cfg := server.DefaultConfig(power.FourCoreServer())
	if mutate != nil {
		mutate(&cfg)
	}
	return server.New(0, eng, cfg)
}

// serverSubmitFinish drives one always-on server through the
// arrive -> run -> idle cycle, one task at a time.
func serverSubmitFinish(scale int) (float64, error) {
	n := ops(300_000, scale)
	eng := engine.New()
	srv, err := newServer(eng, nil)
	if err != nil {
		return 0, err
	}
	return nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			srv.Submit(job.Single(job.ID(i), eng.Now(), simtime.Millisecond).Tasks[0])
			eng.Run()
		}
	}), nil
}

// serverSleepWake adds the rest of the state machine: a zero delay
// timer sends the server to sleep after every task, so each submit pays
// wake -> run -> idle -> sleep.
func serverSleepWake(scale int) (float64, error) {
	n := ops(100_000, scale)
	eng := engine.New()
	srv, err := newServer(eng, func(c *server.Config) { c.DelayTimerEnabled = true })
	if err != nil {
		return 0, err
	}
	return nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			srv.Submit(job.Single(job.ID(i), eng.Now(), simtime.Millisecond).Tasks[0])
			eng.Run()
		}
	}), nil
}

// serverFarmChurn keeps a 1024-server farm's shared sleep planner busy:
// every task disarms its server's pending sleep on arrival and re-arms
// it on completion, and no deadline is ever reached.
func serverFarmChurn(scale int) (float64, error) {
	n := ops(300_000, scale)
	const servers = 1024
	eng := engine.New()
	farm := server.NewFarm(eng)
	cfg := server.DefaultConfig(power.FourCoreServer())
	cfg.DelayTimerEnabled = true
	cfg.DelayTimer = 3600 * simtime.Second
	for i := 0; i < servers; i++ {
		if _, err := farm.Add(i, cfg); err != nil {
			return 0, err
		}
	}
	eng.RunUntil(simtime.Second) // let the idle governors settle
	return nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			farm.Server(i % servers).Submit(job.Single(job.ID(i), eng.Now(), simtime.Microsecond).Tasks[0])
			eng.RunUntil(eng.Now() + simtime.Millisecond)
		}
	}), nil
}

// --- sched ----------------------------------------------------------

// placeRow times one placer over the paper-scale candidate set: 20,480
// idle servers, so the scanning placers do a full pass per call.
func placeRow(p sched.Placer, n int, sharded bool) func(int) (float64, error) {
	return func(scale int) (float64, error) {
		n := ops(n, scale)
		const servers = 20480
		eng := engine.New()
		farm := server.NewFarm(eng)
		srvs := make([]*server.Server, servers)
		for i := range srvs {
			srv, err := farm.Add(i, server.DefaultConfig(power.FourCoreServer()))
			if err != nil {
				return 0, err
			}
			srvs[i] = srv
		}
		s, err := sched.New(eng, srvs, sched.Config{Placer: p})
		if err != nil {
			return 0, err
		}
		if sharded {
			shardOf, shards := sched.BlockShards(servers, 40)
			if err := s.SetShards(shardOf, shards); err != nil {
				return 0, err
			}
		}
		t := job.Single(1, 0, simtime.Millisecond).Tasks[0]
		return nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				if _, err := s.Select(t); err != nil {
					panic(err) // no server is down
				}
			}
		}), nil
	}
}

// --- network --------------------------------------------------------

func newFatTreeNet(k int, model network.NetModel) (*engine.Engine, *network.Network, []topology.NodeID, error) {
	g, err := topology.FatTree{K: k, RateBps: 10e9}.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	eng := engine.New()
	cfg := network.DefaultConfig(power.DataCenter10G(k))
	cfg.Model = model
	cfg.PortBufferBytes = 1 << 30
	n, err := network.New(eng, g, cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return eng, n, g.Hosts(), nil
}

// networkPacketHop sends 64 KiB transfers across pods of a k=4 fat-tree
// (six links end to end) and reports time per packet per link.
func networkPacketHop(scale int) (float64, error) {
	n := ops(3_000, scale)
	const hops = 6
	eng, net, hosts, err := newFatTreeNet(4, network.ModelPacket)
	if err != nil {
		return 0, err
	}
	perTransfer := nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			if err := net.TransferPackets(hosts[0], hosts[15], 64<<10, nil); err != nil {
				panic(err) // the path exists and nothing is down
			}
			eng.Run()
		}
	})
	packets := float64(net.Stats().PacketsDelivered) / float64(n)
	return perTransfer / packets / hops, nil
}

// fluidRow starts c concurrent 64 KiB fluid transfers on a k=8 fat-tree
// and drains them: every start and finish re-shares link rates among
// the flows in flight, so cost per transfer grows with c.
func fluidRow(c, rounds int) func(int) (float64, error) {
	return func(scale int) (float64, error) {
		rounds := ops(rounds, scale)
		eng, net, hosts, err := newFatTreeNet(8, network.ModelFluid)
		if err != nil {
			return 0, err
		}
		return nsPerOp(rounds*c, func() {
			for i := 0; i < rounds; i++ {
				for f := 0; f < c; f++ {
					if err := net.TransferPackets(hosts[f], hosts[(f+64)%len(hosts)], 64<<10, nil); err != nil {
						panic(err) // the path exists and nothing is down
					}
				}
				eng.Run()
			}
		}) / 1e3, nil
	}
}

// --- stats, workload ------------------------------------------------

func statsTallyAdd(scale int) (float64, error) {
	n := ops(2_000_000, scale)
	t := stats.NewTally("bench")
	return nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			t.Add(float64(i&1023) * 1e-3)
		}
	}), nil
}

func statsTallyPercentile(scale int) (float64, error) {
	n := ops(1_000_000, scale)
	t := stats.NewTally("bench")
	r := rng.New(1)
	for i := 0; i < n; i++ {
		t.Add(r.Float64())
	}
	return nsPerOp(1, func() { t.Percentile(95) }) / 1e6, nil
}

func statsResidency(scale int) (float64, error) {
	n := ops(2_000_000, scale)
	res := stats.NewResidency("bench")
	states := [...]string{server.StateActive, "Idle", "Sleep"}
	return nsPerOp(n, func() {
		for i := 0; i < n; i++ {
			res.SetState(simtime.Time(i), states[i%len(states)])
		}
	}), nil
}

func newJobRow(f workload.JobFactory, n int) func(int) (float64, error) {
	return func(scale int) (float64, error) {
		n := ops(n, scale)
		r := rng.New(1)
		return nsPerOp(n, func() {
			for i := 0; i < n; i++ {
				f.NewJob(job.ID(i), simtime.Time(i), r)
			}
		}), nil
	}
}

// --- topology, scenario, core ---------------------------------------

func topologyFatTree(int) (float64, error) {
	var err error
	ms := nsPerOp(1, func() { _, err = topology.FatTree{K: 16}.Build() }) / 1e6
	return ms, err
}

func topologyScopeMap(int) (float64, error) {
	g, err := topology.FatTree{K: 16}.Build()
	if err != nil {
		return 0, err
	}
	return nsPerOp(1, func() { topology.NewScopeMap(g) }) / 1e6, nil
}

// rowInput generates a workload's seed-1 input in memory.
func rowInput(name string, quick bool) ([]byte, error) {
	w := workloadByName(name)
	return w.generate(w, 1, quick)
}

func decodeRow(name string, n int) func(int) (float64, error) {
	return func(scale int) (float64, error) {
		n := ops(n, scale)
		data, err := rowInput(name, false)
		if err != nil {
			return 0, err
		}
		us := nsPerOp(n, func() {
			for i := 0; i < n && err == nil; i++ {
				_, _, err = scenario.DecodeAny(data)
			}
		}) / 1e3
		return us, err
	}
}

var (
	scenarioDecode       = decodeRow("farm-rr", 5_000)
	scenarioMatrixExpand = decodeRow("campaign", 300)
)

// scenarioBuild is Config + core.Build of one campaign point (50
// servers, checker attached): what every matrix point pays before its
// first event.
func scenarioBuild(scale int) (float64, error) {
	n := ops(1_000, scale)
	data, err := rowInput("campaign", false)
	if err != nil {
		return 0, err
	}
	scs, _, err := scenario.DecodeAny(data)
	if err != nil {
		return 0, err
	}
	us := nsPerOp(n, func() {
		for i := 0; i < n && err == nil; i++ {
			_, err = scs[i%len(scs)].Build()
		}
	}) / 1e3
	return us, err
}

// midSize is the paired-overhead rows' and core.collect's base: big
// enough to time, small enough to repeat.
func midSize(servers int, jobs int64) core.Config {
	prof := power.FourCoreServer()
	return core.Config{
		Seed:         1,
		Servers:      servers,
		ServerConfig: server.DefaultConfig(prof),
		Placer:       sched.LeastLoaded{},
		Arrivals:     workload.Poisson{Rate: workload.UtilizationRate(0.3, servers, prof.Cores, 0.005)},
		Factory:      workload.SingleTask{Service: workload.WebSearchService()},
		MaxJobs:      jobs,
	}
}

// coreCollect times Collect over a paper-scale farm after a short run:
// the per-server walk farm-rr pays once at the end.
func coreCollect(scale int) (float64, error) {
	cfg := midSize(ops(20480, scale), 2_000)
	cfg.Placer = sched.RoundRobin{}
	dc, err := core.Build(cfg)
	if err != nil {
		return 0, err
	}
	if _, err := dc.Run(); err != nil {
		return 0, err
	}
	return nsPerOp(1, func() { dc.Collect() }) / 1e6, nil
}

// overheadRow measures an observation-only feature's cost on one
// mid-size run, paired and interleaved: with, without, without, with —
// so drift in the machine's speed cancels — as (time with) over (time
// without), minus one. These are the 2% budgets DESIGN.md states.
func overheadRow(enable func(*core.Config)) func(int) (float64, error) {
	return func(scale int) (float64, error) {
		var seconds [2]float64 // [without, with]
		for _, with := range [...]int{1, 0, 0, 1} {
			cfg := midSize(64, int64(ops(80_000, scale)))
			if with == 1 {
				enable(&cfg)
			}
			dc, err := core.Build(cfg)
			if err != nil {
				return 0, err
			}
			runtime.GC() // neither side collects the other's garbage
			start := time.Now()
			if _, err := dc.Run(); err != nil {
				return 0, err
			}
			seconds[with] += time.Since(start).Seconds()
		}
		return seconds[1]/seconds[0] - 1, nil
	}
}

// --- runner ---------------------------------------------------------

func runnerFanout(scale int) (float64, error) {
	n := ops(200_000, scale)
	runs := make([]runner.Run[int], n)
	for i := range runs {
		runs[i] = runner.Run[int]{Key: "noop", Do: func(uint64) (int, error) { return 0, nil }}
	}
	var err error
	us := nsPerOp(n, func() { _, err = runner.Map(runner.Options{}, 1, runs) }) / 1e3
	return us, err
}

// runnerSpeedup runs the campaign matrix, shortened to 1,000 jobs a
// point, on one worker and on every core: output is identical, so the
// ratio is pure core utilisation.
func runnerSpeedup(scale int) (float64, error) {
	data, err := rowInput("campaign", true)
	if err != nil {
		return 0, err
	}
	scs, _, err := scenario.DecodeAny(data)
	if err != nil {
		return 0, err
	}
	for i := range scs {
		scs[i].MaxJobs = int64(ops(1_000, scale))
	}
	wall := func(workers int) float64 {
		start := time.Now()
		mapScenarios(scs, workers, nil, 0)
		return time.Since(start).Seconds()
	}
	serial := wall(1)
	return serial / wall(runtime.GOMAXPROCS(0)), nil
}

// --- validate -------------------------------------------------------

// The validate rows are simulated, exact and must not move: the model's
// mean absolute power error against the in-repo synthetic reference
// (not hardware), so a speed-up is never read without it.

func validateServer(int) (float64, error) {
	p := experiments.QuickFig12()
	p.Exec = runner.Options{Workers: 1}
	r, err := experiments.Fig12(p)
	if err != nil {
		return 0, err
	}
	return r.MeanAbsDiffW, nil
}

func validateSwitch(int) (float64, error) {
	p := experiments.QuickFig13()
	p.Exec = runner.Options{Workers: 1}
	r, err := experiments.Fig13(p)
	if err != nil {
		return 0, err
	}
	return r.MeanAbsDiffW, nil
}
