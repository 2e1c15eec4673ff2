// Command experiments regenerates every table and figure of the paper's
// evaluation: one loop over experiments.Registry (the experiment index).
//
// Campaigns fan their sweep points out over a worker pool; output is
// bit-identical at any worker count (the runner's determinism contract),
// so -workers only changes wall-clock. -reps expands every simulation
// into N seed replications and adds mean/stddev/CI columns to the sweep
// series.
//
// Usage:
//
//	experiments -exp all              # every table and figure, at paper scale
//	experiments -exp fig5 -quick      # one experiment, reduced scale
//	experiments -exp fig11 -out dir   # also write TSV series files
//	experiments -exp fig5 -workers 1  # serial execution (same bytes)
//	experiments -exp fig5 -reps 5     # 5 replications with error bars
//	experiments -exp all -quick -check # verify conservation laws per run
//	experiments -exp fig5 -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Every experiment is a table or figure of the paper. The million-host
// row is a scenario file, run by cmd/scenario:
//
//	scenario run -workers 1 internal/scenario/testdata/scale/hyperscale-1m.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"holdcsim/internal/experiments"
	"holdcsim/internal/runner"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one CLI invocation; factored from main so tests drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(experiments.Registry))
	for i, e := range experiments.Registry {
		names[i] = e.Name
	}

	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: all|"+strings.Join(names, "|"))
	quick := fs.Bool("quick", false, "use reduced-scale presets")
	out := fs.String("out", "", "directory to write TSV series (optional)")
	workers := fs.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS)")
	reps := fs.Int("reps", 1, "replications per simulation (adds mean/stddev/CI columns)")
	check := fs.Bool("check", false, "verify runtime invariants (conservation laws) in every simulation")
	var prof runner.Profiles
	prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var targets []experiments.Experiment
	for _, e := range experiments.Registry {
		if e.Name == *exp || *exp == "all" {
			targets = append(targets, e)
		}
	}
	if len(targets) == 0 {
		fmt.Fprintf(stderr, "unknown experiment %q (have: %s, all)\n", *exp, strings.Join(names, ", "))
		return 2
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	exec := runner.Options{Workers: *workers, Reps: *reps}
	code := 0
	for _, e := range targets {
		fmt.Fprintf(stdout, "==== %s ====\n", e.Name)
		rep, err := e.Run(*quick, exec, *check, nil)
		if err == nil {
			err = show(stdout, *out, rep)
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", e.Name, err)
			code = 1
			break
		}
		fmt.Fprintln(stdout)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		code = 1
	}
	return code
}

// show prints a report's shown parts in order; with an -out directory
// its tables go to <dir>/<name>.tsv instead.
func show(w io.Writer, dir string, rep *experiments.Report) error {
	for _, p := range rep.Shown {
		switch {
		case p.Table == nil:
			fmt.Fprintln(w, p.Line)
		case dir != "":
			path := filepath.Join(dir, p.Name+".tsv")
			if err := os.WriteFile(path, []byte(p.Table.String()), 0o644); err != nil {
				return err
			}
			fmt.Fprintln(w, "wrote", path)
		case !p.FileOnly:
			fmt.Fprintln(w, p.Table)
		}
	}
	return nil
}
