// Command bench is the repository's benchmark: five named workloads,
// five end-to-end metrics, a per-layer budget and a traced run. See
// README.md for what each number means and BENCHMARK.json (repo root)
// for the contract later changes are judged by.
//
// Usage, from the repository root:
//
//	go run -C bench .                         # every workload, every metric, bench/out/results.json
//	go run -C bench . -workload farm-rr,campaign -seed 7
//	go run -C bench . -trace 1                # traced run and layer rows only
//	go run -C bench . -quick                  # smoke sizes
//	go run -C bench . -compare A.json B.json
//	go run -C bench . -against HEAD~1 -workload farm-rr
//	bash bench/run.sh --workload farm-rr --seed 3 --seconds 20 --trace 0   # the driver's form
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// pinsJSON holds the sim digest each workload must produce on the
// default seed, per size. A model change that alters simulated
// statistics on purpose updates it; anything else that does is a bug.
//
//go:embed pins.json
var pinsJSON []byte

const defaultSeed = 1

type pinTable map[string]map[string]string // size ("full", "quick") -> workload -> digest

func loadPins() (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(pinsJSON, &t); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return t, nil
}

func (t pinTable) lookup(w string, seed uint64, quick bool) string {
	if seed != defaultSeed {
		return ""
	}
	size := "full"
	if quick {
		size = "quick"
	}
	return t[size][w]
}

// results is the file the default invocation writes and -compare reads.
type results struct {
	Fingerprint fingerprint        `json:"fingerprint"`
	Seed        uint64             `json:"seed"`
	Quick       bool               `json:"quick"`
	WallS       float64            `json:"wall_s"`
	Workloads   []workloadResult   `json:"workloads"`
	Layers      map[string]float64 `json:"layers,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed    = fs.Uint64("seed", defaultSeed, "inputs are generated from this seed; only the default seed is checked against pinned digests")
		seconds = fs.Float64("seconds", 20, "each workload's measurement window: warm-up, then runs while another fits, and at least 5 runs")
		trace   = fs.Int("trace", -1, "0: end-to-end metrics only; 1: traced run and layer rows only; default both. Given with exactly one workload, the last line of stdout is the driver's JSON result")
		quick   = fs.Bool("quick", false, "smoke sizes: seconds, not minutes; numbers are not comparable with full size")
		outDir  = fs.String("out", "out", "directory for generated inputs, traces, profiles and results.json")
		compare = fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
		against = fs.String("against", "", "git ref to A/B against: interleaved pairs of that ref and this tree, both built with this bench/")
		pairs   = fs.Int("pairs", 10, "pairs per workload for -against")

		child  = fs.String("child", "", "internal: run one workload (or \"layers\") once and print its record")
		input  = fs.String("input", "", "internal: the child's input file")
		traced = fs.String("traced", "", "internal: make the child's run the traced run, writing here")
		scale  = fs.Int("scale", 1, "internal: divide the layer rows' op counts")
	)
	fs.Var(aliasFlag{names}, "workloads", "alias of -workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	switch {
	case *child != "":
		if err := runChild(*child, *input, *traced, *scale, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	selected, err := selectWorkloads(*names)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	if *against != "" {
		if err := runAgainst(*against, selected, *seed, *quick, *pairs, *outDir, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	if *quick {
		*seconds = 0 // five runs each, however short
	}
	s := suite{
		launcher: childProcess(self), seed: *seed, quick: *quick, seconds: *seconds,
		untraced: *trace != 1, traced: *trace != 0, outDir: *outDir,
	}
	res, err := s.run(selected, stdout)
	if err != nil {
		return fail(err)
	}
	if *trace >= 0 && len(selected) == 1 {
		// The driver's form: the result line is the last line of stdout,
		// and the exit code says only that the benchmark itself ran.
		return printDriverLine(stdout, res, s)
	}
	if err := writeJSON(filepath.Join(*outDir, "results.json"), res); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nwrote %s; wall time %.1f s\n", filepath.Join(*outDir, "results.json"), res.WallS)
	if problems := res.problems(s); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(stderr, "bench: %s\n", p)
		}
		return 1
	}
	return 0
}

// aliasFlag lets a second flag name set the same string.
type aliasFlag struct{ p *string }

func (a aliasFlag) String() string     { return "" }
func (a aliasFlag) Set(v string) error { *a.p = v; return nil }

func selectWorkloads(names string) ([]*benchWorkload, error) {
	if names == "" {
		return workloads, nil
	}
	var out []*benchWorkload
	for _, n := range strings.Split(names, ",") {
		w := workloadByName(strings.TrimSpace(n))
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		out = append(out, w)
	}
	return out, nil
}

// suite is one invocation's settings.
type suite struct {
	launcher
	seed             uint64
	quick            bool
	seconds          float64
	untraced, traced bool
	outDir           string
	pins             pinTable // nil: the embedded table
}

// run generates the inputs, measures every selected workload, runs the
// layer rows, and prints every metric by name with its unit.
func (s suite) run(selected []*benchWorkload, stdout io.Writer) (results, error) {
	start := time.Now()
	res := results{Fingerprint: readFingerprint(), Seed: s.seed, Quick: s.quick}
	pins := s.pins
	if pins == nil {
		var err error
		if pins, err = loadPins(); err != nil {
			return res, err
		}
	}
	inputs, err := writeInputs(filepath.Join(s.outDir, "inputs"), selected, s.seed, s.quick)
	if err != nil {
		return res, err
	}
	for _, w := range selected {
		p := plan{seed: s.seed, seconds: s.seconds, passes: 12, untraced: s.untraced, traced: s.traced,
			outDir: s.outDir, pin: pins.lookup(w.name, s.seed, s.quick)}
		if s.quick {
			p.passes = 1
		}
		if s.traced && !s.untraced {
			p.seconds /= 2 // the traced pass needs the untraced median only as trace.overhead_frac's base
		}
		wr, err := measureWorkload(s.launcher, w, inputs[w.name], p)
		res.Workloads = append(res.Workloads, wr)
		printWorkload(stdout, wr)
		if err != nil {
			fmt.Fprintf(stdout, "%s: %v\n", w.name, err)
		}
	}
	if s.traced {
		scale := 1
		if s.quick {
			scale = 100
		}
		if res.Layers, err = s.layers(scale); err != nil {
			return res, fmt.Errorf("layer rows: %w", err)
		}
		printValues(stdout, "layers", res.Layers, perLayer)
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// problems lists what makes the default invocation exit non-zero: a
// failed op, or a metric the contract names that was not produced.
func (r results) problems(s suite) []string {
	var out []string
	for _, w := range r.Workloads {
		if w.Failed > 0 || w.Attempted == 0 {
			out = append(out, fmt.Sprintf("%s: failed_frac %.4g (%d of %d ops): %s", w.Name, w.FailedFrac, w.Failed, w.Attempted, w.Note))
		}
		if s.untraced {
			for _, m := range endToEnd {
				if _, ok := w.EndToEnd[m.name]; !ok {
					out = append(out, fmt.Sprintf("%s: end-to-end metric %s was not produced", w.Name, m.name))
				}
			}
		}
		if s.traced {
			for _, m := range perLayer {
				_, perWorkload := w.PerLayer[m.name]
				_, row := r.Layers[m.name]
				if !perWorkload && !row {
					out = append(out, fmt.Sprintf("%s: per-layer metric %s was not produced", w.Name, m.name))
				}
			}
		}
	}
	return out
}

// printDriverLine prints the one-line JSON the benchmark driver reads:
// end-to-end metrics for an untraced invocation, per-layer for a traced
// one.
func printDriverLine(stdout io.Writer, r results, s suite) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	w := r.Workloads[0]
	metrics := make(map[string]value)
	if s.traced {
		for _, m := range perLayer {
			v, ok := w.PerLayer[m.name]
			if !ok {
				v = r.Layers[m.name]
			}
			metrics[m.name] = value{v, m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{w.EndToEnd[m.name].Median, m.unit}
		}
	}
	problems := r.problems(s)
	for _, p := range problems {
		fmt.Fprintf(stdout, "bench: %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct": len(problems) == 0, "attempted": w.Attempted, "failed": w.Failed, "metrics": metrics,
	})
	if err != nil || w.Attempted == 0 {
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func printWorkload(out io.Writer, w workloadResult) {
	fmt.Fprintf(out, "\n== %s  digest %s  failed_frac %.4g ratio (%d of %d ops)\n", w.Name, w.Digest, w.FailedFrac, w.Failed, w.Attempted)
	if w.EndToEnd != nil {
		fmt.Fprintf(out, "%-10s host speed %.3f of reference; times below are host time x that\n", w.Name, w.HostSpeed)
	}
	for _, m := range endToEnd {
		if s, ok := w.EndToEnd[m.name]; ok {
			fmt.Fprintf(out, "%-10s %-30s %14.6g %-7s q1 %.6g  q3 %.6g  n=%d  spread %.1f%%\n",
				w.Name, m.name, s.Median, s.Unit, s.Q1, s.Q3, s.N, 100*s.spread())
		}
	}
	printValues(out, w.Name, w.PerLayer, perLayer)
	for _, name := range sortedKeys(w.SpanSelfS) {
		fmt.Fprintf(out, "%-10s %-30s %14.6g s\n", w.Name, "self."+name, w.SpanSelfS[name])
	}
}

func printValues(out io.Writer, label string, values map[string]float64, order []metric) {
	for _, m := range order {
		if v, ok := values[m.name]; ok {
			fmt.Fprintf(out, "%-10s %-30s %14.6g %s\n", label, m.name, v, m.unit)
		}
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
