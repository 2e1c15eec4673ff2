package holdcsim_test

import (
	"fmt"

	"holdcsim"
)

// ExampleBuild runs a minimal deterministic simulation: a four-server
// web-search farm at 20% utilization for two simulated seconds.
func ExampleBuild() {
	cfg := holdcsim.Config{
		Seed:         1,
		Servers:      4,
		ServerConfig: holdcsim.DefaultServerConfig(holdcsim.XeonE5_2680()),
		Placer:       holdcsim.LeastLoaded{},
		Arrivals: holdcsim.Poisson{
			Rate: holdcsim.UtilizationRate(0.2, 4, 10, 0.005)},
		Factory:  holdcsim.SingleTask{Service: holdcsim.Deterministic{Value: 0.005}},
		Duration: 2 * holdcsim.Second,
	}
	dc, err := holdcsim.Build(cfg)
	if err != nil {
		fmt.Println("build:", err)
		return
	}
	res, err := dc.Run()
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	fmt.Printf("completed=%d mean=%.1fms\n", res.JobsCompleted, res.Latency.Mean()*1e3)
	// Output: completed=3206 mean=5.1ms
}

// ExampleFatTree inspects the paper's Fig. 10 topology.
func ExampleFatTree() {
	ft := holdcsim.FatTree{K: 4}
	g, err := ft.Build()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("hosts=%d switches=%d links=%d\n",
		len(g.Hosts()), len(g.Switches()), g.NumLinks())
	// Output: hosts=16 switches=20 links=48
}

// ExampleNewMMPP2 shows the bursty arrival model of Sec. III-D.
func ExampleNewMMPP2() {
	m, err := holdcsim.NewMMPP2(100, 10, 1, 9)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("Ra=%.0f burstyFraction=%.2f meanRate=%.0f/s\n",
		m.LambdaH/m.LambdaL, m.MeanBurst/(m.MeanBurst+m.MeanQuiet),
		(m.LambdaH*m.MeanBurst+m.LambdaL*m.MeanQuiet)/(m.MeanBurst+m.MeanQuiet))
	// Output: Ra=10 burstyFraction=0.10 meanRate=19/s
}
