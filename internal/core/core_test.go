package core

import (
	"math"
	"testing"
	"testing/quick"

	"holdcsim/internal/job"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
	"holdcsim/internal/workload"
)

func baseConfig() Config {
	return Config{
		Seed:         1,
		Servers:      4,
		ServerConfig: server.DefaultConfig(power.FourCoreServer()),
		Placer:       sched.LeastLoaded{},
		Arrivals:     workload.Poisson{Rate: 400},
		Factory:      workload.SingleTask{Service: workload.WebSearchService()},
		MaxJobs:      500,
	}
}

func TestBuildValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.Servers = 0
	if _, err := Build(cfg); err == nil {
		t.Error("zero servers accepted")
	}

	cfg = baseConfig()
	cfg.Arrivals = nil
	if _, err := Build(cfg); err == nil {
		t.Error("missing arrivals accepted")
	}

	cfg = baseConfig()
	cfg.MaxJobs = 0
	if _, err := Build(cfg); err == nil {
		t.Error("unbounded run accepted")
	}

	cfg = baseConfig()
	cfg.ServerConfig.Profile = nil
	if _, err := Build(cfg); err == nil {
		t.Error("missing profile accepted")
	}

	cfg = baseConfig()
	cfg.CommMode = CommFlow // no topology
	if _, err := Build(cfg); err == nil {
		t.Error("comm mode without topology accepted")
	}

	cfg = baseConfig()
	cfg.Servers = 50
	cfg.Topology = topology.Star{Hosts: 10} // too few hosts
	cfg.NetworkConfig = network.DefaultConfig(power.Cisco2960_24())
	if _, err := Build(cfg); err == nil {
		t.Error("host shortage accepted")
	}
}

func TestEndToEndSingleTask(t *testing.T) {
	dc, err := Build(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsCompleted != 500 || r.JobsGenerated != 500 {
		t.Fatalf("jobs = %d/%d", r.JobsCompleted, r.JobsGenerated)
	}
	// At rho = lambda*E[S]/(n*cores) = 400*0.005/16 = 0.125, latencies
	// should sit near the 5ms mean service time.
	mean := r.Latency.Mean()
	if mean < 0.004 || mean > 0.012 {
		t.Errorf("mean latency = %v s", mean)
	}
	if r.ServerEnergyJ <= 0 || r.MeanServerPowerW <= 0 {
		t.Error("no energy recorded")
	}
	comp := r.CPUEnergyJ + r.DRAMEnergyJ + r.PlatformEnergyJ
	if math.Abs(comp-r.ServerEnergyJ) > 1e-6 {
		t.Errorf("component sum %v != total %v", comp, r.ServerEnergyJ)
	}
	if len(r.PerServer) != 4 {
		t.Errorf("per-server results = %d", len(r.PerServer))
	}
	var perSum float64
	for _, e := range r.PerServer {
		perSum += e.CPU + e.DRAM + e.Platform
	}
	if math.Abs(perSum-r.ServerEnergyJ) > 1e-6 {
		t.Errorf("per-server sum %v != total %v", perSum, r.ServerEnergyJ)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() *Results {
		dc, err := Build(baseConfig())
		if err != nil {
			t.Fatal(err)
		}
		r, err := dc.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Latency.Mean() != b.Latency.Mean() ||
		a.ServerEnergyJ != b.ServerEnergyJ ||
		a.End != b.End {
		t.Error("same seed produced different results")
	}
	cfg := baseConfig()
	cfg.Seed = 2
	dc, _ := Build(cfg)
	c, _ := dc.Run()
	if c.Latency.Mean() == a.Latency.Mean() {
		t.Error("different seeds produced identical latency (suspicious)")
	}
}

func TestDurationBoundedRun(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxJobs = 0
	cfg.Duration = 2 * simtime.Second
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.End != 2*simtime.Second {
		t.Errorf("end = %v", r.End)
	}
	if r.JobsCompleted < 500 {
		t.Errorf("completed = %d, want ~800", r.JobsCompleted)
	}
}

func TestWarmupExcludesEarlyJobs(t *testing.T) {
	cfg := baseConfig()
	cfg.Warmup = simtime.Second
	cfg.MaxJobs = 0
	cfg.Duration = 2 * simtime.Second
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Latency.Count() >= r.JobsCompleted {
		t.Errorf("warmup did not exclude jobs: %d tallied of %d", r.Latency.Count(), r.JobsCompleted)
	}
	if r.Latency.Count() == 0 {
		t.Error("no post-warmup jobs tallied")
	}
}

func TestWithTopologyFlowMode(t *testing.T) {
	cfg := baseConfig()
	cfg.Servers = 16
	cfg.Topology = topology.FatTree{K: 4, RateBps: 10e9}
	cfg.NetworkConfig = network.DefaultConfig(power.DataCenter10G(8))
	cfg.CommMode = CommFlow
	cfg.Factory = workload.TwoTier{
		AppService: workload.WebSearchService(),
		DBService:  workload.WebSearchService(),
		Bytes:      1 << 20,
	}
	cfg.MaxJobs = 200
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsCompleted != 200 {
		t.Fatalf("jobs = %d", r.JobsCompleted)
	}
	if r.NetworkEnergyJ <= 0 {
		t.Error("no network energy")
	}
	// Flows only occur for cross-server edges; with 16 servers and
	// least-loaded placement, most app->db pairs split.
	if r.NetStats.FlowsCompleted == 0 {
		t.Error("no flows completed")
	}
	if r.NetStats.FlowsStarted != r.NetStats.FlowsCompleted {
		t.Errorf("flows %d started vs %d completed",
			r.NetStats.FlowsStarted, r.NetStats.FlowsCompleted)
	}
}

func TestWithTopologyPacketMode(t *testing.T) {
	cfg := baseConfig()
	cfg.Servers = 8
	cfg.Topology = topology.Star{Hosts: 8, RateBps: 1e9}
	cfg.NetworkConfig = network.DefaultConfig(power.Cisco2960_24())
	cfg.CommMode = CommPacket
	cfg.Factory = workload.TwoTier{
		AppService: workload.WebSearchService(),
		DBService:  workload.WebSearchService(),
		Bytes:      15000, // 10 packets
	}
	cfg.MaxJobs = 100
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsCompleted != 100 {
		t.Fatalf("jobs = %d", r.JobsCompleted)
	}
	if r.NetStats.PacketsDelivered == 0 {
		t.Error("no packets delivered")
	}
}

func TestResidencyFractionsSumToOne(t *testing.T) {
	cfg := baseConfig()
	cfg.ServerConfig.DelayTimerEnabled = true
	cfg.ServerConfig.DelayTimer = 50 * simtime.Millisecond
	cfg.MaxJobs = 0
	cfg.Duration = 60 * simtime.Second
	// Sparse arrivals leave multi-second gaps so suspend cycles (2.5s
	// entry on this profile) complete between jobs.
	cfg.Arrivals = workload.Poisson{Rate: 1}
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range r.Residency {
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("residency fractions sum to %v: %v", sum, r.Residency)
	}
	// With a 50ms delay timer at low load, servers must spend time in
	// system sleep.
	if r.Residency[power.StateSysSleep] <= 0 {
		t.Errorf("no SysSleep residency: %v", r.Residency)
	}
	if r.ServerWakeups == 0 {
		t.Error("no server wakeups recorded")
	}
}

func TestHeterogeneousConfigureServer(t *testing.T) {
	cfg := baseConfig()
	cfg.ConfigureServer = func(i int, c *server.Config) {
		if i == 0 {
			c.CoreSpeeds = []float64{2, 2, 2, 2}
		}
	}
	dc, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both servers start alike, so the work's finish times differ by
	// exactly the service times' difference.
	var done [2]simtime.Time
	dc.Farm.OnTaskDone(func(srv *server.Server, _ *job.Task) {
		if id := srv.ID(); id < len(done) {
			done[id] = dc.Eng.Now()
		}
	})
	for i, srv := range dc.Servers[:2] {
		srv.Submit(job.Single(job.ID(i), 0, 10*simtime.Millisecond).Tasks[0])
	}
	dc.Eng.Run()
	if done[1]-done[0] != 5*simtime.Millisecond {
		t.Errorf("ConfigureServer not applied: 10ms of work finished at %v on the 2x server, %v on the 1x", done[0], done[1])
	}
}

// Property: offered load below capacity implies all jobs complete and
// mean latency is finite and at least the mean service time.
func TestStabilityProperty(t *testing.T) {
	f := func(seed uint64, rhoPct uint8) bool {
		rho := 0.05 + float64(rhoPct%60)/100 // 5%..64%
		cfg := baseConfig()
		cfg.Seed = seed
		cfg.Arrivals = workload.Poisson{
			Rate: workload.UtilizationRate(rho, 4, 4, 0.005)}
		cfg.MaxJobs = 300
		dc, err := Build(cfg)
		if err != nil {
			return false
		}
		r, err := dc.Run()
		if err != nil {
			return false
		}
		return r.JobsCompleted == 300 && r.Latency.Mean() >= 0.004 &&
			!math.IsInf(r.Latency.Mean(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestCommModeString(t *testing.T) {
	if CommNone.String() != "none" || CommFlow.String() != "flow" ||
		CommPacket.String() != "packet" || CommMode(9).String() != "CommMode(9)" {
		t.Error("CommMode.String broken")
	}
}

// TestCommModeText pins the scenario-codec text forms: marshal/
// unmarshal round-trip for every mode, errors (not junk bytes) for
// unknown values and names.
func TestCommModeText(t *testing.T) {
	for _, m := range []CommMode{CommNone, CommFlow, CommPacket} {
		b, err := m.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		var back CommMode = 99
		if err := back.UnmarshalText(b); err != nil || back != m {
			t.Errorf("round trip %v -> %q -> %v (%v)", m, b, back, err)
		}
	}
	if _, err := CommMode(9).MarshalText(); err == nil {
		t.Error("unknown mode marshaled")
	}
	var m CommMode
	if err := m.UnmarshalText([]byte("fluid")); err == nil {
		t.Error("unknown name unmarshaled")
	}
}
