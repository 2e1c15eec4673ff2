package holdcsim_test

import (
	"testing"

	"holdcsim"
)

// ablation is one side of a design choice: a configuration and what to
// do to the built data center before it runs.
type ablation struct {
	name  string
	cfg   holdcsim.Config
	setup func(*holdcsim.DataCenter) error
}

// outcome is what a side of an ablation is judged by.
type outcome struct {
	res    *holdcsim.Results
	events uint64
}

func (a ablation) run(t *testing.T) outcome {
	t.Helper()
	dc, err := holdcsim.Build(a.cfg)
	if err != nil {
		t.Fatalf("%s: %v", a.name, err)
	}
	if a.setup != nil {
		if err := a.setup(dc); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatalf("%s: %v", a.name, err)
	}
	if res.JobsCompleted != a.cfg.MaxJobs {
		t.Fatalf("%s: completed %d of %d jobs", a.name, res.JobsCompleted, a.cfg.MaxJobs)
	}
	return outcome{res, dc.Eng.Dispatched}
}

func p99(o outcome) float64    { return o.res.Latency.Percentile(99) }
func p95(o outcome) float64    { return o.res.Latency.Percentile(95) }
func cpuJ(o outcome) float64   { return o.res.CPUEnergyJ }
func events(o outcome) float64 { return float64(o.events) }

// farmConfig is the server-only base the queueing ablations share:
// least-loaded placement of single-task web-search jobs.
func farmConfig(seed uint64, servers int, sc holdcsim.ServerConfig, arrivals holdcsim.ArrivalProcess, jobs int64) holdcsim.Config {
	return holdcsim.Config{
		Seed: seed, Servers: servers, ServerConfig: sc,
		Placer:   holdcsim.LeastLoaded{},
		Arrivals: arrivals,
		Factory:  holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
		MaxJobs:  jobs,
	}
}

// TestAblationDirections runs both sides of every design choice the
// paper motivates by comparison (DESIGN.md Sec. 6) at fixed seeds and
// small sizes, and asserts the direction the mechanism exists for: the
// sides are listed in the order the metric must strictly increase.
func TestAblationDirections(t *testing.T) {
	poisson := func(rho float64, servers, cores int) holdcsim.ArrivalProcess {
		return holdcsim.Poisson{Rate: holdcsim.UtilizationRate(rho, servers, cores, 0.005)}
	}
	xeon := func(mutate func(*holdcsim.ServerConfig)) holdcsim.ServerConfig {
		sc := holdcsim.DefaultServerConfig(holdcsim.XeonE5_2680())
		if mutate != nil {
			mutate(&sc)
		}
		return sc
	}
	fourCore := holdcsim.DefaultServerConfig(holdcsim.FourCoreServer())
	mmpp := func(ratio float64) holdcsim.ArrivalProcess {
		const meanRate, frac = 1600.0, 0.1
		lambdaL := meanRate / (frac*ratio + (1 - frac))
		m, err := holdcsim.NewMMPP2(lambdaL*ratio, lambdaL, 1, 9)
		if err != nil {
			t.Fatal(err)
		}
		return holdcsim.MMPP{Proc: m}
	}
	twoTier := func(seed uint64, comm holdcsim.CommMode, servers int, rate float64, bytes, jobs int64) holdcsim.Config {
		return holdcsim.Config{
			Seed: seed, Servers: servers, ServerConfig: fourCore, CommMode: comm,
			Placer:   holdcsim.RoundRobin{},
			Arrivals: holdcsim.Poisson{Rate: rate},
			Factory: holdcsim.TwoTier{AppService: holdcsim.WebSearchService(),
				DBService: holdcsim.WebSearchService(), Bytes: bytes},
			MaxJobs: jobs,
		}
	}
	star := func(comm holdcsim.CommMode) holdcsim.Config {
		cfg := twoTier(3, comm, 8, 200, 100_000, 1000)
		cfg.Topology = holdcsim.Star{Hosts: 8, RateBps: 1e9}
		cfg.NetworkConfig = holdcsim.DefaultNetworkConfig(holdcsim.Cisco2960_24())
		return cfg
	}
	atPState := func(i int) func(*holdcsim.DataCenter) error {
		return func(dc *holdcsim.DataCenter) error {
			for _, srv := range dc.Servers {
				if err := srv.SetPState(i); err != nil {
					return err
				}
			}
			return nil
		}
	}
	globalQueue := farmConfig(4, 8, fourCore, poisson(0.8, 8, 4), 8000)
	globalQueue.UseGlobalQueue = true
	dvfs := farmConfig(6, 4, xeon(nil), poisson(0.3, 4, 10), 4000)

	for _, tc := range []struct {
		name, why string
		metric    func(outcome) float64
		sides     []ablation
	}{
		{"local-queue", "a unified local queue cuts tail latency against per-core queues (Sec. II, Li et al.)", p99, []ablation{
			{name: "unified", cfg: farmConfig(1, 4, xeon(func(sc *holdcsim.ServerConfig) { sc.QueueMode = holdcsim.QueueUnified }), poisson(0.7, 4, 10), 8000)},
			{name: "per-core", cfg: farmConfig(1, 4, xeon(func(sc *holdcsim.ServerConfig) { sc.QueueMode = holdcsim.QueuePerCore }), poisson(0.7, 4, 10), 8000)},
		}},
		{"flow-vs-packet", "the flow model carries the same traffic in far fewer events than per-packet forwarding (Sec. III-B)", events, []ablation{
			{name: "flow", cfg: star(holdcsim.CommFlow)},
			{name: "packet", cfg: star(holdcsim.CommPacket)},
		}},
		{"global-queue", "a central queue is work-conserving where push dispatch commits a job to one server's backlog (Sec. III-E)", p99, []ablation{
			{name: "global-queue", cfg: globalQueue},
			{name: "push", cfg: farmConfig(4, 8, fourCore, poisson(0.8, 8, 4), 8000)},
		}},
		{"burstiness", "at one mean rate, tail latency grows with the MMPP burstiness ratio Ra (Sec. III-D)", p99, []ablation{
			{name: "Ra1-poisson", cfg: farmConfig(5, 10, fourCore, holdcsim.Poisson{Rate: 1600}, 8000)},
			{name: "Ra10", cfg: farmConfig(5, 10, fourCore, mmpp(10), 8000)},
			{name: "Ra40", cfg: farmConfig(5, 10, fourCore, mmpp(40), 8000)},
		}},
		{"dvfs-energy", "each slower P-state spends less CPU energy on the same work (Sec. III-A)", cpuJ, []ablation{
			{name: "P3", cfg: dvfs, setup: atPState(3)},
			{name: "P2", cfg: dvfs, setup: atPState(2)},
			{name: "P1", cfg: dvfs, setup: atPState(1)},
			{name: "P0", cfg: dvfs, setup: atPState(0)},
		}},
		{"dvfs-latency", "and pays for it in latency", p95, []ablation{
			{name: "P0", cfg: dvfs, setup: atPState(0)},
			{name: "P3", cfg: dvfs, setup: atPState(3)},
		}},
		{"heterogeneous", "at equal aggregate capacity and moderate load, a local scheduler that picks the fastest free core serves most work on the fast cores: the big.LITTLE mix has the shorter tail (Sec. II)", p99, []ablation{
			{name: "big-little", cfg: farmConfig(7, 4, xeon(func(sc *holdcsim.ServerConfig) {
				sc.CoreSpeeds = []float64{1.6, 1.6, 1.6, 1.6, 1.6, 0.4, 0.4, 0.4, 0.4, 0.4}
			}), poisson(0.5, 4, 10), 4000)},
			{name: "homogeneous", cfg: farmConfig(7, 4, xeon(nil), poisson(0.5, 4, 10), 4000)},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prev := 0.0
			for i, side := range tc.sides {
				got := tc.metric(side.run(t))
				t.Logf("%s: %g", side.name, got)
				if i > 0 && !(got > prev) {
					t.Errorf("%s = %g is not above %s = %g: %s", side.name, got, tc.sides[i-1].name, prev, tc.why)
				}
				prev = got
			}
		})
	}
}
