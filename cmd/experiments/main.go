// Command experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index).
//
// Campaigns fan their sweep points out over a worker pool; output is
// bit-identical at any worker count (the runner's determinism contract),
// so -workers only changes wall-clock. -reps expands every simulation
// into N seed replications and adds mean/stddev/CI columns to the sweep
// series.
//
// Usage:
//
//	experiments -exp all              # run everything at paper scale
//	experiments -exp fig5 -quick      # one experiment, reduced scale
//	experiments -exp fig11 -out dir   # also write TSV series files
//	experiments -exp fig5 -workers 1  # serial execution (same bytes)
//	experiments -exp fig5 -reps 5     # 5 replications with error bars
//	experiments -exp all -quick -check # verify conservation laws per run
//	experiments -exp hyperscale       # the 1M-server row (by name only: minutes, several GB)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"holdcsim/internal/experiments"
	"holdcsim/internal/runner"
)

// cliOpts carries the shared flags into each experiment runner.
type cliOpts struct {
	quick bool
	out   string
	check bool
	exec  runner.Options
	w     io.Writer
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one CLI invocation; factored from main so tests drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: all|table1|fig4|fig5|fig6|fig8|fig9|fig11|fig12|fig13|hyperscale")
	quick := fs.Bool("quick", false, "use reduced-scale presets")
	out := fs.String("out", "", "directory to write TSV series (optional)")
	workers := fs.Int("workers", 0, "campaign worker pool size (0 = GOMAXPROCS)")
	reps := fs.Int("reps", 1, "replications per simulation (adds mean/stddev/CI columns)")
	check := fs.Bool("check", false, "verify runtime invariants (conservation laws) in every simulation")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	runners := map[string]func(cliOpts) error{
		"table1": runTableI,
		"fig4":   runFig4,
		"fig5":   runFig5,
		"fig6":   runFig6,
		"fig8":   runFig8,
		"fig9":   runFig9,
		"fig11":  runFig11,
		"fig12":  runFig12,
		"fig13":  runFig13,
	}
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	// Hyperscale is not a paper artifact and costs minutes and several
	// GB at full size, so "all" leaves it out: it runs by name only.
	runners["hyperscale"] = runHyperscale

	targets := names
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			fmt.Fprintf(stderr, "unknown experiment %q (have: %s, hyperscale, all)\n",
				*exp, strings.Join(names, ", "))
			return 2
		}
		targets = []string{*exp}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintln(stderr, "experiments:", err)
			return 1
		}
	}
	opts := cliOpts{
		quick: *quick,
		out:   *out,
		check: *check,
		exec:  runner.Options{Workers: *workers, Reps: *reps},
		w:     stdout,
	}
	for _, name := range targets {
		fmt.Fprintf(stdout, "==== %s ====\n", name)
		if err := runners[name](opts); err != nil {
			fmt.Fprintf(stderr, "experiments: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

func emit(w io.Writer, out, name string, table fmt.Stringer) error {
	if out == "" {
		fmt.Fprintln(w, table)
		return nil
	}
	path := filepath.Join(out, name+".tsv")
	if err := os.WriteFile(path, []byte(table.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	return nil
}

func runTableI(o cliOpts) error {
	p := experiments.DefaultTableI()
	if o.quick {
		p = experiments.QuickTableI()
	}
	p.Exec = o.exec
	p.Check = o.check
	r, err := experiments.TableI(p)
	if err != nil {
		return err
	}
	if err := emit(o.w, o.out, "table1", r.Features); err != nil {
		return err
	}
	fmt.Fprintln(o.w, r.Summary())
	return nil
}

func runHyperscale(o cliOpts) error {
	p := experiments.DefaultHyperscale()
	if o.quick {
		p = experiments.QuickHyperscale()
	}
	p.Check = o.check
	r, err := experiments.Hyperscale(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.w, r.Summary())
	return nil
}

func runFig4(o cliOpts) error {
	p := experiments.DefaultFig4()
	if o.quick {
		p = experiments.QuickFig4()
	}
	p.Exec = o.exec
	p.Check = o.check
	r, err := experiments.Fig4(p)
	if err != nil {
		return err
	}
	if err := emit(o.w, o.out, "fig4", r.Series); err != nil {
		return err
	}
	fmt.Fprintln(o.w, r.Summary())
	return nil
}

func runFig5(o cliOpts) error {
	p := experiments.DefaultFig5()
	if o.quick {
		p = experiments.QuickFig5()
	}
	p.Exec = o.exec
	p.Check = o.check
	r, err := experiments.Fig5(p)
	if err != nil {
		return err
	}
	if err := emit(o.w, o.out, "fig5", r.Series); err != nil {
		return err
	}
	keys := make([]string, 0, len(r.OptimalTau))
	for k := range r.OptimalTau {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(o.w, "optimal tau %-18s = %.2g s\n", k, r.OptimalTau[k])
	}
	return nil
}

func runFig6(o cliOpts) error {
	p := experiments.DefaultFig6()
	if o.quick {
		p = experiments.QuickFig6()
	}
	p.Exec = o.exec
	p.Check = o.check
	r, err := experiments.Fig6(p)
	if err != nil {
		return err
	}
	if err := emit(o.w, o.out, "fig6", r.Series); err != nil {
		return err
	}
	for _, pt := range r.Points {
		fmt.Fprintf(o.w, "%-7s servers=%-3d rho=%.1f: dual saves %5.1f%% vs Active-Idle, %5.1f%% vs single timer\n",
			pt.Workload, pt.Servers, pt.Rho, pt.ReductionPct, pt.VsSinglePct)
	}
	return nil
}

func runFig8(o cliOpts) error {
	p := experiments.DefaultFig8()
	if o.quick {
		p = experiments.QuickFig8()
	}
	p.Exec = o.exec
	p.Check = o.check
	r, err := experiments.Fig8(p)
	if err != nil {
		return err
	}
	return emit(o.w, o.out, "fig8", r.Series)
}

func runFig9(o cliOpts) error {
	p := experiments.DefaultFig9()
	if o.quick {
		p = experiments.QuickFig9()
	}
	p.Exec = o.exec
	p.Check = o.check
	r, err := experiments.Fig9(p)
	if err != nil {
		return err
	}
	if err := emit(o.w, o.out, "fig9", r.Series); err != nil {
		return err
	}
	fmt.Fprintf(o.w, "delay-timer total %.1f kJ, workload-adaptive total %.1f kJ: %.1f%% saving\n",
		r.TimerTotalJ/1e3, r.AdaptiveTotalJ/1e3, r.SavingPct)
	return nil
}

func runFig11(o cliOpts) error {
	p := experiments.DefaultFig11()
	if o.quick {
		p = experiments.QuickFig11()
	}
	p.Exec = o.exec
	p.Check = o.check
	r, err := experiments.Fig11(p)
	if err != nil {
		return err
	}
	if err := emit(o.w, o.out, "fig11a", r.Series); err != nil {
		return err
	}
	rhos := make([]float64, 0, len(r.ServerSavingPct))
	for rho := range r.ServerSavingPct {
		rhos = append(rhos, rho)
	}
	sort.Float64s(rhos)
	for _, rho := range rhos {
		fmt.Fprintf(o.w, "rho=%.0f%%: server power saving %.1f%%, network power saving %.1f%%\n",
			rho*100, r.ServerSavingPct[rho], r.NetworkSavingPct[rho])
	}
	return emit(o.w, o.out, "fig11b", r.CDFTable())
}

func runFig12(o cliOpts) error {
	p := experiments.DefaultFig12()
	if o.quick {
		p = experiments.QuickFig12()
	}
	p.Exec = o.exec
	p.Check = o.check
	r, err := experiments.Fig12(p)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := emit(o.w, o.out, "fig12", r.Series); err != nil {
			return err
		}
	}
	fmt.Fprintln(o.w, r.Summary())
	return nil
}

func runFig13(o cliOpts) error {
	p := experiments.DefaultFig13()
	if o.quick {
		p = experiments.QuickFig13()
	}
	p.Exec = o.exec
	p.Check = o.check
	r, err := experiments.Fig13(p)
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := emit(o.w, o.out, "fig13", r.Series); err != nil {
			return err
		}
		// Fig. 14's two representative 20-minute segments.
		if err := emit(o.w, o.out, "fig14a", r.Segment(
			"Fig. 14a: switch power trace, segment 1 (80-100 min)", 80*60, 100*60)); err != nil {
			return err
		}
		if err := emit(o.w, o.out, "fig14b", r.Segment(
			"Fig. 14b: switch power trace, segment 2 (40-60 min)", 40*60, 60*60)); err != nil {
			return err
		}
	}
	fmt.Fprintln(o.w, r.Summary())
	return nil
}
