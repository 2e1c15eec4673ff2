// Fat-tree DAG: run task graphs with large inter-task flows over a k=4
// fat-tree (the paper's Fig. 10 topology) and compare Server-Balanced
// placement against the Server-Network-Aware policy of Sec. IV-D, which
// wakes the fewest additional switches.
//
// Run with: go run ./examples/fattree_dag
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
	const jobs = 600

	sim := func(networkAware bool) (*holdcsim.Results, error) {
		sc := holdcsim.DefaultServerConfig(holdcsim.FourCoreServer())
		sc.DelayTimerEnabled = true
		sc.DelayTimer = holdcsim.Second

		ncfg := holdcsim.DefaultNetworkConfig(holdcsim.DataCenter10G(6))
		ncfg.SwitchSleepIdle = holdcsim.Seconds(0.5)

		cfg := holdcsim.Config{
			Seed:          21,
			Servers:       16,
			ServerConfig:  sc,
			Topology:      holdcsim.FatTree{K: 4, RateBps: 10e9},
			NetworkConfig: ncfg,
			CommMode:      holdcsim.CommFlow,
			Arrivals:      holdcsim.Poisson{Rate: 40},
			Factory: holdcsim.RandomDAG{
				Layers: 3, MaxWidth: 3, MaxDeps: 2,
				MinSize: 20 * holdcsim.Millisecond, MaxSize: 80 * holdcsim.Millisecond,
				EdgeBytes: 25e6, // 25 MB result transfers between tasks
			},
			MaxJobs: jobs,
		}
		if networkAware {
			cfg.Placer = &holdcsim.NetworkAware{}
		} else {
			cfg.Placer = holdcsim.LeastLoaded{}
		}
		dc, err := holdcsim.Build(cfg)
		if err != nil {
			return nil, err
		}
		return dc.Run()
	}

	balanced, err := sim(false)
	if err != nil {
		return err
	}
	aware, err := sim(true)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%d DAG jobs over a k=4 fat-tree, 25 MB inter-task flows\n\n", jobs)
	fmt.Fprintf(w, "%-22s %12s %12s %10s %10s\n", "policy", "server(W)", "network(W)", "p95(ms)", "flows")
	fmt.Fprintf(w, "%-22s %12.1f %12.1f %10.1f %10d\n", "server-balanced",
		balanced.MeanServerPowerW, balanced.MeanNetworkPowerW,
		balanced.Latency.Percentile(95)*1e3, balanced.NetStats.FlowsCompleted)
	fmt.Fprintf(w, "%-22s %12.1f %12.1f %10.1f %10d\n", "server-network-aware",
		aware.MeanServerPowerW, aware.MeanNetworkPowerW,
		aware.Latency.Percentile(95)*1e3, aware.NetStats.FlowsCompleted)
	fmt.Fprintf(w, "\nsavings: %.1f%% server power, %.1f%% network power\n",
		100*(balanced.MeanServerPowerW-aware.MeanServerPowerW)/balanced.MeanServerPowerW,
		100*(balanced.MeanNetworkPowerW-aware.MeanNetworkPowerW)/balanced.MeanNetworkPowerW)
	return nil
}
