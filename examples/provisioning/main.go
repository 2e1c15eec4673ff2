// Provisioning: reproduce the shape of the paper's Fig. 4 case study —
// a 50-server farm fed by a diurnal Wikipedia-like trace, with a
// threshold provisioner that parks and activates servers as the load
// swings. Prints a small ASCII chart of active servers over time.
//
// Run with: go run ./examples/provisioning
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"holdcsim"
)

func main() {
	if err := run(os.Stdout, 600); err != nil {
		log.Fatal(err)
	}
}

// run simulates durationSec seconds of the diurnal trace; the full
// example uses 600 s, tests shorten it.
func run(w io.Writer, durationSec float64) error {
	const (
		servers  = 50
		meanRate = 6000 // requests/second across the farm
	)

	// Synthetic Wikipedia-like trace: diurnal swing + jitter + flash
	// crowds (the paper replays the real Wikipedia trace [59]).
	tr := holdcsim.SyntheticWikipedia(durationSec, meanRate, holdcsim.NewRNG(7))

	prov := holdcsim.NewProvisioner(0.8, 2.5) // min/max jobs per active server
	cfg := holdcsim.Config{
		Seed:         7,
		Servers:      servers,
		ServerConfig: holdcsim.DefaultServerConfig(holdcsim.FourCoreServer()),
		Placer:       prov,
		Arrivals:     holdcsim.NewTraceReplay(tr),
		Factory:      holdcsim.SingleTask{Service: holdcsim.WikipediaService()},
		Duration:     holdcsim.Time(durationSec) * holdcsim.Second,
	}
	dc, err := holdcsim.Build(cfg)
	if err != nil {
		return err
	}

	// Sample the active-server count every 10 simulated seconds.
	type sample struct {
		t      holdcsim.Time
		active int
		jobs   int
	}
	var samples []sample
	// First sample after the provisioner has seen its first arrival.
	dc.Eng.Every(10*holdcsim.Second, 10*holdcsim.Second, cfg.Duration, func() {
		samples = append(samples, sample{dc.Eng.Now(), prov.ActiveServers(), dc.Sched.JobsInSystem()})
	})

	res, err := dc.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%d jobs served; active servers over time:\n\n", res.JobsCompleted)
	fmt.Fprintln(w, "  time   jobs  active servers")
	for _, s := range samples {
		bar := strings.Repeat("#", s.active)
		fmt.Fprintf(w, "%5.0fs  %5d  %2d %s\n", s.t.Seconds(), s.jobs, s.active, bar)
	}
	fmt.Fprintf(w, "\nmean latency %.2f ms, p95 %.2f ms, energy %.0f kJ\n",
		res.Latency.Mean()*1e3, res.Latency.Percentile(95)*1e3, res.ServerEnergyJ/1e3)
	return nil
}
