package holdcsim_test

import (
	"math"
	"testing"

	"holdcsim"
	"holdcsim/internal/trace"
	"holdcsim/internal/workload"
)

// The facade tests exercise the public API as examples/ use it; what the
// facade does not export they take from the internal packages.

func TestPublicQuickstart(t *testing.T) {
	cfg := holdcsim.Config{
		Seed:         1,
		Servers:      8,
		ServerConfig: holdcsim.DefaultServerConfig(holdcsim.XeonE5_2680()),
		Placer:       holdcsim.LeastLoaded{},
		Arrivals:     holdcsim.Poisson{Rate: 2000},
		Factory:      holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
		MaxJobs:      2000,
	}
	dc, err := holdcsim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != 2000 {
		t.Fatalf("jobs = %d", res.JobsCompleted)
	}
	if res.Latency.Percentile(99) <= 0 {
		t.Error("no latency percentiles")
	}
	if res.ServerEnergyJ <= 0 {
		t.Error("no energy")
	}
}

func TestPublicNetworkedRun(t *testing.T) {
	cfg := holdcsim.Config{
		Seed:          2,
		Servers:       16,
		ServerConfig:  holdcsim.DefaultServerConfig(holdcsim.FourCoreServer()),
		Topology:      holdcsim.FatTree{K: 4, RateBps: 10e9},
		NetworkConfig: holdcsim.DefaultNetworkConfig(holdcsim.DataCenter10G(8)),
		CommMode:      holdcsim.CommFlow,
		Placer:        holdcsim.PackFirst{},
		Arrivals:      holdcsim.Poisson{Rate: 50},
		Factory: workload.TwoTier{
			AppService: holdcsim.WebSearchService(),
			DBService:  workload.WebServingService(),
			Bytes:      5 << 20,
		},
		MaxJobs: 300,
	}
	dc, err := holdcsim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != 300 {
		t.Fatalf("jobs = %d", res.JobsCompleted)
	}
	if res.NetworkEnergyJ <= 0 {
		t.Error("no network energy")
	}
}

func TestPublicPolicies(t *testing.T) {
	pool := holdcsim.NewAdaptivePool(8, 4, holdcsim.Second)
	cfg := holdcsim.Config{
		Seed:         3,
		Servers:      6,
		ServerConfig: holdcsim.DefaultServerConfig(holdcsim.XeonE5_2680()),
		Placer:       pool,
		Arrivals:     holdcsim.Poisson{Rate: holdcsim.UtilizationRate(0.2, 6, 10, 0.005)},
		Factory:      holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
		Duration:     20 * holdcsim.Second,
	}
	dc, err := holdcsim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, f := range res.Residency {
		sum += f
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("residency sums to %v", sum)
	}
	if res.Residency[holdcsim.StateSysSleep] <= 0 {
		t.Errorf("adaptive pool produced no system sleep: %v", res.Residency)
	}
}

func TestPublicTraces(t *testing.T) {
	r := holdcsim.NewRNG(7)
	wiki := holdcsim.SyntheticWikipedia(300, 30, r.Split("w"))
	if wiki.Len() == 0 {
		t.Fatal("empty wikipedia trace")
	}
	nlanr := trace.SyntheticNLANR(300, 40, 2, r.Split("n"))
	if nlanr.Len() == 0 {
		t.Fatal("empty nlanr trace")
	}
	cfg := holdcsim.Config{
		Seed:         4,
		Servers:      4,
		ServerConfig: holdcsim.DefaultServerConfig(holdcsim.FourCoreServer()),
		Placer:       holdcsim.LeastLoaded{},
		Arrivals:     holdcsim.NewTraceReplay(wiki),
		Factory:      holdcsim.SingleTask{Service: holdcsim.WikipediaService()},
		Duration:     300 * holdcsim.Second,
	}
	dc, err := holdcsim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted == 0 {
		t.Error("trace replay completed no jobs")
	}
}

func TestPublicMMPP(t *testing.T) {
	m, err := holdcsim.NewMMPP2(200, 20, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := holdcsim.Config{
		Seed:         5,
		Servers:      4,
		ServerConfig: holdcsim.DefaultServerConfig(holdcsim.FourCoreServer()),
		Placer:       holdcsim.LeastLoaded{},
		Arrivals:     holdcsim.MMPP{Proc: m},
		Factory:      holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
		MaxJobs:      1000,
	}
	dc, err := holdcsim.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsCompleted != 1000 {
		t.Errorf("jobs = %d", res.JobsCompleted)
	}
}
