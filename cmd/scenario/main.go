// Command scenario is the file front end of the scenario subsystem: it
// validates, expands, runs and exports scenario and campaign-matrix
// files (JSON with comments; see DESIGN.md Sec. 10), so externally
// recorded configurations and production traces replay through the
// exact invariant-checked, deterministic path generated scenarios use.
//
// Usage:
//
//	scenario validate <file>...            parse + Validate, print the canonical label
//	scenario expand <file>...              print every label a matrix file generates
//	scenario run [flags] <file>...         execute files, TSV results to stdout
//	  -workers N   worker pool size (default GOMAXPROCS)
//	  -reps N      replications per scenario (default 1)
//	  -check       fail on any invariant violation (default true)
//	  -cpuprofile FILE, -memprofile FILE   profile the run (go tool pprof)
//	scenario export [flags]                dump built-ins as files
//	  -list            list preset names
//	  -preset NAME     export one preset
//	  -random SEED     export the Random(SEED) draw
//	  -matrix          export the demo campaign matrix
//	  -o FILE          output path (default stdout)
//
// A scenario file's relative traceFile path resolves against the
// scenario file's directory, so a config and its recorded trace travel
// as a pair.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"holdcsim/internal/runner"
	"holdcsim/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run dispatches one CLI invocation; factored from main so tests drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "validate":
		err = cmdValidate(args[1:], stdout)
	case "expand":
		err = cmdExpand(args[1:], stdout)
	case "run":
		err = cmdRun(args[1:], stdout)
	case "export":
		err = cmdExport(args[1:], stdout)
	case "help", "-h", "--help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "scenario: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "scenario:", err)
		return 1
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: scenario <command> [flags] [file...]

commands:
  validate <file>...   parse + Validate scenario/matrix files, print canonical labels
  expand <file>...     print every scenario label a matrix file generates
  run      <file>...   execute files through the campaign runner, TSV to stdout
                       (-workers N, -reps N, -check, -cpuprofile FILE, -memprofile FILE)
  export               dump built-ins (-list | -preset NAME | -random SEED | -matrix) [-o FILE]

files are JSON with // and /* */ comments; unknown fields are rejected
and every scenario is validated on load. See DESIGN.md Sec. 10.
`)
}

// loaded pairs an executable scenario with its canonical label. The
// label is computed from the scenario as written in the file — before
// relative traceFile paths are resolved against the file's directory —
// so labels, and the replication seeds the runner derives from them,
// never depend on the directory the CLI was invoked from.
type loaded struct {
	s     scenario.Scenario
	label string
}

// asLoaded wraps in-memory scenarios (no file, nothing to resolve).
func asLoaded(ss []scenario.Scenario) []loaded {
	out := make([]loaded, len(ss))
	for i, s := range ss {
		out[i] = loaded{s: s, label: s.String()}
	}
	return out
}

// loadFile decodes one scenario or matrix file, labels each scenario
// as written, then resolves relative traceFile paths against the
// file's directory for execution.
func loadFile(path string) ([]loaded, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	ss, isMatrix, err := scenario.DecodeAny(data)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	out := asLoaded(ss)
	dir := filepath.Dir(path)
	for i := range out {
		out[i].s = out[i].s.ResolveTraceFiles(dir)
	}
	return out, isMatrix, nil
}

func cmdValidate(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("validate: no files")
	}
	for _, path := range args {
		ss, isMatrix, err := loadFile(path)
		if err != nil {
			return err
		}
		if isMatrix {
			fmt.Fprintf(w, "%s: matrix, %d valid scenarios\n", path, len(ss))
		} else {
			fmt.Fprintf(w, "%s: %s\n", path, ss[0].label)
		}
	}
	return nil
}

func cmdExpand(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("expand: no files")
	}
	for _, path := range args {
		ss, _, err := loadFile(path)
		if err != nil {
			return err
		}
		for _, l := range ss {
			fmt.Fprintln(w, l.label)
		}
	}
	return nil
}

func cmdRun(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	reps := fs.Int("reps", 1, "replications per scenario")
	check := fs.Bool("check", true, "fail on any invariant violation")
	var prof runner.Profiles
	prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("run: no files")
	}
	var scenarios []loaded
	for _, path := range fs.Args() {
		ss, _, err := loadFile(path)
		if err != nil {
			return err
		}
		scenarios = append(scenarios, ss...)
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	tsv, violations, err := runScenarios(scenarios, runner.Options{Workers: *workers, Reps: *reps})
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	fmt.Fprint(w, tsv)
	if *check && violations > 0 {
		return fmt.Errorf("run: %d invariant violation(s); see the violations column", violations)
	}
	return nil
}

// runScenarios executes the campaign and renders the TSV. Replication
// seeds follow the runner's contract: rep 0 is the scenario's own seed
// (so a 1-rep campaign reproduces the in-memory run byte for byte) and
// rep i > 0 derives from (seed, label, i) — which is why scenario
// labels must be injective. Returns the TSV, the total violation
// count, and any construction error.
func runScenarios(scenarios []loaded, opts runner.Options) (string, int, error) {
	if len(scenarios) == 0 {
		return "", 0, fmt.Errorf("run: zero scenarios")
	}
	reps := opts.RepCount()
	// Flatten (scenario, rep) pairs into independent runs so the pool
	// parallelizes across both axes; each run is a pure function of its
	// pre-derived seed.
	flat := make([]runner.Run[scenario.Result], 0, len(scenarios)*reps)
	for _, l := range scenarios {
		for rep := 0; rep < reps; rep++ {
			s2 := l.s
			s2.Seed = runner.RepSeed(l.s.Seed, l.label, rep)
			flat = append(flat, runner.Run[scenario.Result]{
				Key: l.label,
				Do: func(uint64) (scenario.Result, error) {
					res, err := s2.Run()
					if err != nil && res.Results == nil {
						return scenario.Result{}, err // construction failure
					}
					return res, nil // violations ride in res.Violations
				},
			})
		}
	}
	out, err := runner.Map(runner.Options{Workers: opts.Workers}, 0, flat)
	if err != nil {
		return "", 0, err
	}

	var b strings.Builder
	b.WriteString("label\trep\tseed\tend_s\tgenerated\tcompleted\tlost\tmean_ms\tp50_ms\tp95_ms\tp99_ms\tserver_J\tnetwork_J\tjobs_lost_drop\tjobs_lost_outage\ttasks_aborted\tfaults_applied\tviolations\n")
	violations := 0
	for i, l := range scenarios {
		for rep := 0; rep < reps; rep++ {
			res := out[i*reps+rep]
			violations += len(res.Violations)
			writeRow(&b, l.label, rep, runner.RepSeed(l.s.Seed, l.label, rep), res)
		}
	}
	return b.String(), violations, nil
}

// writeRow renders one (scenario, replication) result. Floats use %g —
// shortest round-trip form — so output is deterministic across
// platforms and worker counts.
func writeRow(b *strings.Builder, label string, rep int, seed uint64, res scenario.Result) {
	r := res.Results
	var mean, p50, p95, p99 float64
	if r.Latency != nil && r.Latency.Count() > 0 {
		mean = r.Latency.Mean() * 1e3
		p50 = r.Latency.Percentile(50) * 1e3
		p95 = r.Latency.Percentile(95) * 1e3
		p99 = r.Latency.Percentile(99) * 1e3
	}
	// Fault-ledger columns render zero on fault-free runs (no ledger is
	// attached at all), so fault-free TSV stays column-compatible.
	var lostDrop, lostOutage, applied int64
	if r.Faults != nil {
		lostDrop = r.Faults.JobsLostCrash
		lostOutage = r.Faults.JobsLostNoAlive
		applied = int64(r.Faults.Applied())
	}
	fmt.Fprintf(b, "%s\t%d\t%d\t%g\t%d\t%d\t%d\t%g\t%g\t%g\t%g\t%g\t%g\t%d\t%d\t%d\t%d\t%d\n",
		label, rep, seed, r.End.Seconds(),
		r.JobsGenerated, r.JobsCompleted, r.JobsLost,
		mean, p50, p95, p99,
		r.ServerEnergyJ, r.NetworkEnergyJ,
		lostDrop, lostOutage, r.TasksAborted, applied, len(res.Violations))
}

// exportHeader prefixes exported files so the format documents itself.
func exportHeader(origin string) string {
	return fmt.Sprintf(`// holdcsim scenario file — exported by 'scenario export %s'.
// Format: JSON with // and /* */ comments; unknown fields are rejected
// and the scenario is validated on load. Field reference: DESIGN.md Sec. 10.
`, origin)
}

func cmdExport(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	list := fs.Bool("list", false, "list preset names")
	preset := fs.String("preset", "", "preset name to export")
	random := fs.Uint64("random", 0, "seed for a Random scenario draw")
	matrix := fs.Bool("matrix", false, "export the demo campaign matrix")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	randomSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "random" {
			randomSet = true
		}
	})
	if fs.NArg() != 0 {
		return fmt.Errorf("export: unexpected arguments %v", fs.Args())
	}

	var data []byte
	switch {
	case *list:
		for _, n := range scenario.PresetNames() {
			fmt.Fprintln(w, n)
		}
		return nil
	case *preset != "":
		s, err := scenario.Preset(*preset)
		if err != nil {
			return err
		}
		b, err := scenario.Encode(s)
		if err != nil {
			return err
		}
		data = append([]byte(exportHeader("-preset "+*preset)), b...)
	case randomSet:
		s := scenario.Random(*random)
		b, err := scenario.Encode(s)
		if err != nil {
			return err
		}
		data = append([]byte(exportHeader(fmt.Sprintf("-random %d", *random))), b...)
	case *matrix:
		b, err := scenario.EncodeMatrix(scenario.DemoMatrix())
		if err != nil {
			return err
		}
		data = append([]byte(exportHeader("-matrix")), b...)
	default:
		return fmt.Errorf("export: one of -list, -preset, -random or -matrix is required")
	}

	if *out == "" {
		_, err := w.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}
