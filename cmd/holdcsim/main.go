// Command holdcsim runs a single data center simulation and prints the
// collected statistics — the simulator's general-purpose front end
// (paper Fig. 1: workload model + server profile + switch profile in,
// runtime statistics out).
//
// Usage:
//
//	holdcsim -config sim.json
//	holdcsim -servers 50 -cores 4 -rho 0.3 -service websearch -policy packfirst -tau 1s -duration 60s
//
// -config takes a scenario file: the same JSON-with-comments format,
// strict decoding, validation and limits as cmd/scenario (field
// reference: DESIGN.md Sec. 10; `scenario export -preset fig5-delaytimer`
// prints a commented example). A campaign-matrix file is refused — run those with
// `scenario run`. The flag form builds the same Scenario value from the
// flags, so both forms run invariant-checked through one path.
// -cpuprofile FILE and -memprofile FILE profile the build and run.
//
// The flags speak the scenario vocabulary: -policy is any placer name
// the codec knows, and -service names a service profile (websearch,
// exp 5 ms; webserving, exp 120 ms; wikipedia, uniform 3-10 ms). The
// command's earlier private config schema is gone, and with it the
// fields the scenario vocabulary has no word for: ratePerSec (set rho),
// burstFraction, warmupSec and arbitrary service means.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"holdcsim/internal/core"
	"holdcsim/internal/runner"
	"holdcsim/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one CLI invocation; factored from main so tests drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "holdcsim:", err)
		return code
	}
	var prof runner.Profiles
	s, err := load(args, stderr, &prof)
	if err == flag.ErrHelp {
		return 0
	}
	if err != nil {
		return fail(2, err)
	}
	stopProf, err := prof.Start()
	if err != nil {
		return fail(1, err)
	}
	res, elapsed, err := simulate(s)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return fail(1, err)
	}
	report(stdout, res, elapsed)
	return 0
}

// simulate builds and runs the scenario, timing the run.
func simulate(s scenario.Scenario) (*core.Results, time.Duration, error) {
	dc, err := s.Build()
	if err != nil {
		return nil, 0, err
	}
	sw := runner.StartStopwatch()
	res, err := dc.Run()
	return res, sw.Elapsed(), err
}

// load turns the command line into the one scenario to run: the decoded
// -config file, or the scenario the other flags describe. The profile
// flags land in prof.
func load(args []string, stderr io.Writer, prof *runner.Profiles) (scenario.Scenario, error) {
	fs := flag.NewFlagSet("holdcsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "", "scenario file (JSON with comments; DESIGN.md Sec. 10)")
	servers := fs.Int("servers", 16, "server count")
	cores := fs.Int("cores", 4, "cores per server (selects profile: 4=4core, 10=xeon10)")
	rho := fs.Float64("rho", 0.3, "target utilization")
	service := fs.String("service", "websearch", "service profile: websearch|webserving|wikipedia")
	policy := fs.String("policy", "leastloaded",
		"scenario placer name: leastloaded|roundrobin|packfirst|... (an unknown name lists them all)")
	tau := fs.Duration("tau", -1, "delay timer (negative disables)")
	duration := fs.Duration("duration", 30*time.Second, "simulated duration")
	seed := fs.Uint64("seed", 1, "random seed")
	prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return scenario.Scenario{}, err
	}
	if fs.NArg() != 0 {
		return scenario.Scenario{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *configPath != "" {
		return loadFile(*configPath)
	}

	s := scenario.Scenario{
		Seed:          *seed,
		Servers:       *servers,
		DelayTimerSec: tau.Seconds(),
		Arrival:       scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: *rho},
		DurationSec:   duration.Seconds(),
	}
	switch *cores {
	case 4:
		s.Profile = scenario.ProfFourCore
	case 10:
		s.Profile = scenario.ProfXeon10
	default:
		return scenario.Scenario{}, fmt.Errorf("-cores %d: no such profile (want 4 or 10)", *cores)
	}
	if err := s.Placer.Kind.UnmarshalText([]byte(*policy)); err != nil {
		return scenario.Scenario{}, fmt.Errorf("-policy: %w", err)
	}
	if err := s.Factory.Service.UnmarshalText([]byte(*service)); err != nil {
		return scenario.Scenario{}, fmt.Errorf("-service: %w", err)
	}
	return s, nil
}

// loadFile decodes a single-scenario file, resolving its relative trace
// paths against the file's directory.
func loadFile(path string) (scenario.Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return scenario.Scenario{}, err
	}
	ss, isMatrix, err := scenario.DecodeAny(data)
	if err != nil {
		return scenario.Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	if isMatrix {
		return scenario.Scenario{}, fmt.Errorf(
			"%s is a campaign matrix (%d scenarios); run it with `go run ./cmd/scenario run %s`",
			path, len(ss), path)
	}
	return ss[0].ResolveTraceFiles(filepath.Dir(path)), nil
}

func report(w io.Writer, res *core.Results, wall time.Duration) {
	fmt.Fprintf(w, "simulated %.3f s in %v wall\n", res.End.Seconds(), wall.Round(time.Millisecond))
	fmt.Fprintf(w, "jobs: generated %d, completed %d\n", res.JobsGenerated, res.JobsCompleted)
	if res.Latency.Count() > 0 {
		fmt.Fprintf(w, "latency: mean %.3f ms  p50 %.3f ms  p90 %.3f ms  p95 %.3f ms  p99 %.3f ms  max %.3f ms\n",
			res.Latency.Mean()*1e3, res.Latency.Percentile(50)*1e3,
			res.Latency.Percentile(90)*1e3, res.Latency.Percentile(95)*1e3,
			res.Latency.Percentile(99)*1e3, res.Latency.Max()*1e3)
	}
	fmt.Fprintf(w, "server energy: %.1f kJ (cpu %.1f + dram %.1f + platform %.1f), mean power %.1f W\n",
		res.ServerEnergyJ/1e3, res.CPUEnergyJ/1e3, res.DRAMEnergyJ/1e3,
		res.PlatformEnergyJ/1e3, res.MeanServerPowerW)
	if res.NetworkEnergyJ > 0 {
		fmt.Fprintf(w, "network energy: %.1f kJ, mean power %.1f W\n",
			res.NetworkEnergyJ/1e3, res.MeanNetworkPowerW)
		fmt.Fprintf(w, "network: %d flows, %d packets delivered, %d dropped\n",
			res.NetStats.FlowsCompleted, res.NetStats.PacketsDelivered, res.NetStats.PacketsDropped)
	}
	states := make([]string, 0, len(res.Residency))
	for s := range res.Residency {
		states = append(states, s)
	}
	sort.Strings(states)
	fmt.Fprintf(w, "residency:")
	for _, s := range states {
		fmt.Fprintf(w, " %s=%.1f%%", s, res.Residency[s]*100)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "wakeups: %d server, %d switch\n", res.ServerWakeups, res.SwitchWakeups)
}
