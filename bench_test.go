// Ablation benches for the design choices the implementation calls out
// (DESIGN.md Sec. 6). Each reports a domain metric (energy, latency
// percentiles) via b.ReportMetric alongside the usual ns/op, so
// `go test -bench=Ablation -benchmem` doubles as a results table.
// Performance is measured by the repo benchmark, not here: bench/README.md.
package holdcsim_test

import (
	"testing"

	"holdcsim"
)

// ---------------------------------------------------------------------
// Ablations (design choices listed in DESIGN.md Sec. 6).
// ---------------------------------------------------------------------

// BenchmarkAblationLocalQueue compares the unified local queue against
// per-core queues (Sec. II, citing Li et al. [37] on tail latency).
func BenchmarkAblationLocalQueue(b *testing.B) {
	for _, mode := range []struct {
		name string
		qm   holdcsim.QueueMode
	}{{"unified", holdcsim.QueueUnified}, {"percore", holdcsim.QueuePerCore}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := holdcsim.DefaultServerConfig(holdcsim.XeonE5_2680())
				sc.QueueMode = mode.qm
				cfg := holdcsim.Config{
					Seed:         1,
					Servers:      4,
					ServerConfig: sc,
					Placer:       holdcsim.LeastLoaded{},
					Arrivals: holdcsim.Poisson{
						Rate: holdcsim.UtilizationRate(0.7, 4, 10, 0.005)},
					Factory: holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
					MaxJobs: 20000,
				}
				dc, err := holdcsim.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := dc.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency.Percentile(99)*1e3, "p99-ms")
			}
		})
	}
}

// BenchmarkAblationECMP compares single-path routing against ECMP flow
// spreading on a fat-tree under concurrent cross-pod flows.
func BenchmarkAblationECMP(b *testing.B) {
	for _, ecmp := range []struct {
		name string
		on   bool
	}{{"single-path", false}, {"ecmp", true}} {
		b.Run(ecmp.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ncfg := holdcsim.DefaultNetworkConfig(holdcsim.DataCenter10G(6))
				ncfg.ECMP = ecmp.on
				cfg := holdcsim.Config{
					Seed:          2,
					Servers:       16,
					ServerConfig:  holdcsim.DefaultServerConfig(holdcsim.FourCoreServer()),
					Topology:      holdcsim.FatTree{K: 4, RateBps: 10e9},
					NetworkConfig: ncfg,
					CommMode:      holdcsim.CommFlow,
					Placer:        holdcsim.RoundRobin{},
					Arrivals:      holdcsim.Poisson{Rate: 100},
					Factory: holdcsim.TwoTier{
						AppService: holdcsim.WebSearchService(),
						DBService:  holdcsim.WebSearchService(),
						Bytes:      20e6,
					},
					MaxJobs: 1500,
				}
				dc, err := holdcsim.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := dc.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency.Percentile(95)*1e3, "p95-ms")
			}
		})
	}
}

// BenchmarkAblationPacketVsFlow sends identical traffic through the
// packet-level and flow-level models (Sec. III-B's two granularities).
func BenchmarkAblationPacketVsFlow(b *testing.B) {
	for _, mode := range []struct {
		name string
		cm   holdcsim.CommMode
	}{{"flow", holdcsim.CommFlow}, {"packet", holdcsim.CommPacket}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := holdcsim.Config{
					Seed:          3,
					Servers:       8,
					ServerConfig:  holdcsim.DefaultServerConfig(holdcsim.FourCoreServer()),
					Topology:      holdcsim.Star{Hosts: 8, RateBps: 1e9},
					NetworkConfig: holdcsim.DefaultNetworkConfig(holdcsim.Cisco2960_24()),
					CommMode:      mode.cm,
					Placer:        holdcsim.RoundRobin{},
					Arrivals:      holdcsim.Poisson{Rate: 200},
					Factory: holdcsim.TwoTier{
						AppService: holdcsim.WebSearchService(),
						DBService:  holdcsim.WebSearchService(),
						Bytes:      100_000,
					},
					MaxJobs: 2000,
				}
				dc, err := holdcsim.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := dc.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency.Mean()*1e3, "mean-ms")
			}
		})
	}
}

// BenchmarkAblationGlobalQueue compares push dispatch against the
// central global task queue (Sec. III-E).
func BenchmarkAblationGlobalQueue(b *testing.B) {
	for _, mode := range []struct {
		name string
		gq   bool
	}{{"push", false}, {"global-queue", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := holdcsim.Config{
					Seed:           4,
					Servers:        8,
					ServerConfig:   holdcsim.DefaultServerConfig(holdcsim.FourCoreServer()),
					Placer:         holdcsim.LeastLoaded{},
					UseGlobalQueue: mode.gq,
					Arrivals: holdcsim.Poisson{
						Rate: holdcsim.UtilizationRate(0.8, 8, 4, 0.005)},
					Factory: holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
					MaxJobs: 20000,
				}
				dc, err := holdcsim.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := dc.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency.Percentile(99)*1e3, "p99-ms")
			}
		})
	}
}

// BenchmarkAblationMMPP sweeps the burstiness ratio Ra at fixed mean
// rate (Sec. III-D's two burstiness knobs).
func BenchmarkAblationMMPP(b *testing.B) {
	for _, ra := range []struct {
		name  string
		ratio float64
	}{{"Ra1-poisson", 1}, {"Ra10", 10}, {"Ra40", 40}} {
		b.Run(ra.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				const meanRate = 1600.0
				var arrivals holdcsim.ArrivalProcess = holdcsim.Poisson{Rate: meanRate}
				if ra.ratio > 1 {
					frac := 0.1
					lambdaL := meanRate / (frac*ra.ratio + (1 - frac))
					m, err := holdcsim.NewMMPP2(lambdaL*ra.ratio, lambdaL, 1, 9)
					if err != nil {
						b.Fatal(err)
					}
					arrivals = holdcsim.MMPP{Proc: m}
				}
				cfg := holdcsim.Config{
					Seed:         5,
					Servers:      10,
					ServerConfig: holdcsim.DefaultServerConfig(holdcsim.FourCoreServer()),
					Placer:       holdcsim.LeastLoaded{},
					Arrivals:     arrivals,
					Factory:      holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
					MaxJobs:      20000,
				}
				dc, err := holdcsim.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := dc.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency.Percentile(99)*1e3, "p99-ms")
			}
		})
	}
}

// BenchmarkAblationDVFS fixes the farm at each P-state and reports the
// energy/latency trade-off of frequency scaling (Sec. III-A P-states).
func BenchmarkAblationDVFS(b *testing.B) {
	for pidx, name := range []string{"P0", "P1", "P2", "P3"} {
		pidx := pidx
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := holdcsim.Config{
					Seed:         6,
					Servers:      4,
					ServerConfig: holdcsim.DefaultServerConfig(holdcsim.XeonE5_2680()),
					Placer:       holdcsim.LeastLoaded{},
					Arrivals: holdcsim.Poisson{
						Rate: holdcsim.UtilizationRate(0.3, 4, 10, 0.005)},
					Factory: holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
					MaxJobs: 10000,
				}
				dc, err := holdcsim.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, srv := range dc.Servers {
					if err := srv.SetPState(pidx); err != nil {
						b.Fatal(err)
					}
				}
				res, err := dc.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.CPUEnergyJ, "cpu-J")
				b.ReportMetric(res.Latency.Percentile(95)*1e3, "p95-ms")
			}
		})
	}
}

// BenchmarkAblationHeterogeneous compares a homogeneous farm against a
// big.LITTLE-style mix with the same aggregate compute capacity
// (Sec. II: "heterogeneous processors with performance varying cores").
func BenchmarkAblationHeterogeneous(b *testing.B) {
	mixes := []struct {
		name   string
		speeds []float64
	}{
		{"homogeneous", nil}, // all 1.0
		{"big-little", []float64{1.6, 1.6, 1.6, 1.6, 1.6, 0.4, 0.4, 0.4, 0.4, 0.4}},
	}
	for _, mix := range mixes {
		mix := mix
		b.Run(mix.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := holdcsim.DefaultServerConfig(holdcsim.XeonE5_2680())
				sc.CoreSpeeds = mix.speeds
				cfg := holdcsim.Config{
					Seed:         7,
					Servers:      4,
					ServerConfig: sc,
					Placer:       holdcsim.LeastLoaded{},
					Arrivals: holdcsim.Poisson{
						Rate: holdcsim.UtilizationRate(0.5, 4, 10, 0.005)},
					Factory: holdcsim.SingleTask{Service: holdcsim.WebSearchService()},
					MaxJobs: 10000,
				}
				dc, err := holdcsim.Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := dc.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency.Percentile(99)*1e3, "p99-ms")
			}
		})
	}
}
