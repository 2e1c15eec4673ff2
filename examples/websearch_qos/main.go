// Web-search QoS: compare three power-management policies on a
// latency-critical workload against a QoS target of 2x the mean service
// time (the paper's Sec. IV-C setting) — the energy/latency trade-off
// that motivates hierarchical sleep-state management.
//
//   - Active-Idle: servers never sleep (baseline).
//   - Delay timer: every server suspends after τ idle.
//   - Workload-adaptive (WASP-style): dual pools, package C6 in the
//     active pool, suspend-to-RAM in the sleep pool.
//
// Run with: go run ./examples/websearch_qos
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"holdcsim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const (
		servers = 10
		rho     = 0.3
		qos     = 2 * 0.005 // 2x mean service time, seconds
	)

	type outcome struct {
		name    string
		energyJ float64
		p95     float64
		sleep   float64
	}
	var results []outcome

	for _, policy := range []string{"active-idle", "delay-timer", "adaptive"} {
		cfg := holdcsim.Config{
			Seed:         9,
			Servers:      servers,
			ServerConfig: holdcsim.DefaultServerConfig(holdcsim.XeonE5_2680()),
			Arrivals: holdcsim.Poisson{
				Rate: holdcsim.UtilizationRate(rho, servers, 10, 0.005)},
			// Deterministic 5 ms requests: with exponential services the
			// p95 of service time alone would exceed a 2x-mean QoS target.
			Factory:  holdcsim.SingleTask{Service: holdcsim.Deterministic{Value: 0.005}},
			Duration: 60 * holdcsim.Second,
		}
		switch policy {
		case "active-idle":
			cfg.Placer = holdcsim.LeastLoaded{}
		case "delay-timer":
			cfg.Placer = holdcsim.PackFirst{}
			cfg.ServerConfig.DelayTimerEnabled = true
			cfg.ServerConfig.DelayTimer = holdcsim.Seconds(0.8)
		case "adaptive":
			cfg.Placer = holdcsim.NewAdaptivePool(8, 4, holdcsim.Second)
		}
		dc, err := holdcsim.Build(cfg)
		if err != nil {
			return err
		}
		res, err := dc.Run()
		if err != nil {
			return err
		}
		results = append(results, outcome{
			name:    policy,
			energyJ: res.ServerEnergyJ,
			p95:     res.Latency.Percentile(95),
			sleep:   res.Residency[holdcsim.StateSysSleep] + res.Residency[holdcsim.StatePkgC6],
		})
	}

	base := results[0].energyJ
	fmt.Fprintf(w, "web search at %.0f%% utilization, QoS target p95 <= %.0f ms\n\n", rho*100, qos*1e3)
	fmt.Fprintf(w, "%-14s %10s %9s %8s %11s %6s\n", "policy", "energy(kJ)", "saving", "p95(ms)", "low-power%", "QoS")
	for _, r := range results {
		verdict := "MET"
		if r.p95 > qos {
			verdict = "MISS"
		}
		fmt.Fprintf(w, "%-14s %10.1f %8.1f%% %8.2f %10.1f%% %6s\n",
			r.name, r.energyJ/1e3, 100*(base-r.energyJ)/base, r.p95*1e3, r.sleep*100, verdict)
	}
	return nil
}
