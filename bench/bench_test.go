package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// quickSuite runs the benchmark in-process at smoke sizes; traced adds
// the traced run and the layer rows.
func quickSuite(t *testing.T, seed uint64, traced bool, pins pinTable, names ...string) (results, suite, string) {
	t.Helper()
	s := suite{launcher: inProcess, seed: seed, quick: true, untraced: true, traced: traced, outDir: t.TempDir(), pins: pins}
	selected := workloads
	if len(names) > 0 {
		var err error
		if selected, err = selectWorkloads(strings.Join(names, ",")); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	res, err := s.run(selected, &out)
	if err != nil {
		t.Fatalf("suite: %v\n%s", err, out.String())
	}
	return res, s, out.String()
}

// TestSmoke is the whole benchmark at -quick size: every metric the
// contract names is printed exactly once per workload with its unit,
// outputs check out, and the trace is well-formed.
func TestSmoke(t *testing.T) {
	res, s, out := quickSuite(t, defaultSeed, true, nil)
	if problems := res.problems(s); len(problems) > 0 {
		t.Fatalf("problems: %v", problems)
	}

	// Printed rows: label, metric, value, unit.
	type key struct{ label, name string }
	printed := make(map[key]int)
	units := make(map[string]string)
	row := regexp.MustCompile(`^(\S+)\s+(\S+)\s+(\S+)\s+(\S+)`)
	for _, line := range strings.Split(out, "\n") {
		if m := row.FindStringSubmatch(line); m != nil && !strings.HasPrefix(line, "==") {
			printed[key{m[1], m[2]}]++
			units[m[2]] = m[4]
		}
	}
	rows := make(map[string]bool)
	for _, r := range layerRows {
		rows[r.name] = true
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !validName.MatchString(m.name) {
			t.Errorf("metric name %q is not a legal name", m.name)
		}
		if units[m.name] != m.unit {
			t.Errorf("%s printed with unit %q, want %q", m.name, units[m.name], m.unit)
		}
		if rows[m.name] {
			if n := printed[key{"layers", m.name}]; n != 1 {
				t.Errorf("layer row %s printed %d times, want 1", m.name, n)
			}
			continue
		}
		for _, w := range workloads {
			if n := printed[key{w.name, m.name}]; n != 1 {
				t.Errorf("%s: %s printed %d times, want 1", w.name, m.name, n)
			}
		}
	}

	for _, w := range res.Workloads {
		if w.FailedFrac != 0 || w.Attempted == 0 {
			t.Errorf("%s: failed_frac %g of %d ops: %s", w.Name, w.FailedFrac, w.Attempted, w.Note)
		}
		switch nonzero := w.PerLayer["span.invariant.finalize_s"] > 0 && w.PerLayer["span.runner.map_s"] > 0; {
		case w.Name == "campaign" && !nonzero:
			t.Errorf("campaign: checker and fan-out spans are empty")
		case w.Name != "campaign" && (w.PerLayer["span.invariant.finalize_s"] != 0 || w.PerLayer["span.runner.map_s"] != 0):
			t.Errorf("%s: checker or fan-out span is non-zero on an unchecked single run", w.Name)
		}
		checkTrace(t, filepath.Join(s.outDir, "trace-"+w.Name+".json"))
		if _, err := os.Stat(filepath.Join(s.outDir, "cpu-"+w.Name+".pprof")); err != nil {
			t.Error(err)
		}
	}

	// The driver's line carries exactly the contract's metrics.
	for _, traced := range []bool{false, true} {
		var line bytes.Buffer
		one := res
		one.Workloads = res.Workloads[:1]
		d := s
		d.untraced, d.traced = !traced, traced
		if code := printDriverLine(&line, one, d); code != 0 {
			t.Fatalf("driver line: exit %d: %s", code, line.String())
		}
		var got struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line.Bytes(), &got); err != nil {
			t.Fatalf("driver line %q: %v", line.String(), err)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if !got.Correct || got.Failed != 0 || got.Attempted < 1 || !reflect.DeepEqual(sortedKeys(got.Metrics), metricNames(want)) {
			t.Errorf("driver line (traced=%v): correct=%v failed=%d attempted=%d metrics=%v", traced, got.Correct, got.Failed, got.Attempted, sortedKeys(got.Metrics))
		}
	}
}

// checkTrace parses a Chrome trace file and checks every span's parent
// is present.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var tr struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Errorf("%s: %v", path, err)
		return
	}
	ids := map[int]bool{0: true}
	for _, e := range tr.TraceEvents {
		ids[e.Args["id"]] = true
	}
	if len(tr.TraceEvents) < 5 {
		t.Errorf("%s: only %d spans", path, len(tr.TraceEvents))
	}
	for _, e := range tr.TraceEvents {
		if !ids[e.Args["parent"]] {
			t.Errorf("%s: span %q (id %d) has missing parent %d", path, e.Name, e.Args["id"], e.Args["parent"])
		}
		if e.Dur < 0 {
			t.Errorf("%s: span %q never ended", path, e.Name)
		}
	}
}

// TestDigests: simulated statistics repeat per seed, differ across
// seeds, and a digest that disagrees with its pin fails every op.
func TestDigests(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := quickSuite(t, defaultSeed, false, nil, "farm-rr", "dag-fluid")
	other, _, _ := quickSuite(t, defaultSeed+1, false, nil, "farm-rr", "dag-fluid")
	for i, w := range first.Workloads {
		if w.Digest != pins["quick"][w.Name] {
			t.Errorf("%s: digest %s, pinned %s", w.Name, w.Digest, pins["quick"][w.Name])
		}
		if w.Digest == other.Workloads[i].Digest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", w.Name, w.Digest)
		}
		if o := other.Workloads[i]; o.FailedFrac != 0 {
			t.Errorf("%s: held-out seed failed_frac %g: %s", w.Name, o.FailedFrac, o.Note)
		}
	}

	bad, s, _ := quickSuite(t, defaultSeed, false, pinTable{"quick": {"farm-rr": "0000000000000000"}}, "farm-rr")
	if w := bad.Workloads[0]; w.FailedFrac != 1 {
		t.Errorf("corrupted pin: failed_frac %g, want 1 (%s)", w.FailedFrac, w.Note)
	}
	if len(bad.problems(s)) == 0 {
		t.Error("corrupted pin: the invocation would exit 0")
	}
}

// TestContractFile holds BENCHMARK.json and the tables in metrics.go
// and workloads.go equal.
func TestContractFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name, Why, Unit, Better string
		Bound                   float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []named
		EndToEnd   []named `json:"end_to_end"`
		PerLayer   []named `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || !reflect.DeepEqual(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	var ws, e2e, layer []named
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
		ws = append(ws, named{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, named{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	for _, m := range perLayer {
		layer = append(layer, named{Name: m.name, Unit: m.unit, Better: m.better})
	}
	if !reflect.DeepEqual(spec.Workloads, ws) {
		t.Errorf("workloads differ:\n file %+v\n code %+v", spec.Workloads, ws)
	}
	if !reflect.DeepEqual(spec.EndToEnd, e2e) {
		t.Errorf("end_to_end differs:\n file %+v\n code %+v", spec.EndToEnd, e2e)
	}
	if !reflect.DeepEqual(spec.PerLayer, layer) {
		t.Errorf("per_layer differs:\n file %+v\n code %+v", spec.PerLayer, layer)
	}
}

func TestVerdict(t *testing.T) {
	m := metric{name: "run_s", unit: "s", better: "lower", bound: 0.10}
	tight := func(center float64) summary {
		return summarizeSamples("s", []float64{center * 0.99, center, center, center, center * 1.01})
	}
	wide := func(center float64) summary {
		return summarizeSamples("s", []float64{center * 0.7, center * 0.85, center, center * 1.15, center * 1.3})
	}
	for _, c := range []struct {
		name string
		a, b summary
		want string
	}{
		{"same", tight(1), tight(1.02), verdictNoChange},
		{"slower", tight(1), tight(1.2), verdictRegressed},
		{"faster", tight(1), tight(0.8), verdictImproved},
		{"noisy and overlapping", wide(1), wide(1.05), verdictUnresolved},
		{"noisy but separated", wide(1), wide(0.3), verdictImproved},
	} {
		if got, _ := verdict(m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	higher := metric{name: "sim_jobs_per_s", better: "higher", bound: 0.10}
	if got, _ := verdict(higher, tight(100), tight(80)); got != verdictRegressed {
		t.Errorf("higher-is-better drop: %s", got)
	}

	a := results{Fingerprint: fingerprint{CPUModel: "x", Cores: 2, Commit: "a"}}
	b := results{Fingerprint: fingerprint{CPUModel: "y", Cores: 2, Commit: "a"}}
	var out, errOut bytes.Buffer
	if code := compareResults(a, b, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "refusing") {
		t.Errorf("cross-machine compare: exit %d, stderr %q", code, errOut.String())
	}
	b.Fingerprint = a.Fingerprint
	b.Fingerprint.Commit = "b" // a different commit on the same machine compares
	if code := compareResults(a, b, &out, &errOut); code != 0 {
		t.Errorf("same-machine compare: exit %d", code)
	}
}

// TestHostSpeed pins the reference-speed scaling: a host at half speed
// halves the reported times and doubles the reported rate, memory is
// left alone, and the kernel does the same work on every pass.
func TestHostSpeed(t *testing.T) {
	if s := newHostSpeed().speed(); s != 1 {
		t.Errorf("speed with no samples = %v, want 1", s)
	}
	h := newHostSpeed()
	if a, b := h.pass(), newHostSpeed().pass(); a != b {
		t.Errorf("two kernel passes over fresh state returned %d and %d", a, b)
	}
	h.samples = []float64{2 * kernelNominal.Seconds()}
	if s := h.speed(); s != 0.5 {
		t.Errorf("speed = %v, want 0.5", s)
	}

	got := endToEndSummaries([]record{{SetupS: 1, RunS: 4, CPUS: 6, PeakRSSMB: 100, Jobs: 1000}}, 0.5)
	for name, want := range map[string]float64{"setup_s": 0.5, "run_s": 2, "cpu_s": 3, "sim_jobs_per_s": 500, "peak_rss_mb": 100} {
		if got[name].Median != want {
			t.Errorf("%s = %v, want %v", name, got[name].Median, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		stack []string
		layer string
		alloc bool
	}{
		{[]string{"runtime.memhash", "runtime.mapassign", "holdcsim/internal/network.(*Network).waterFill", "holdcsim/internal/engine.(*Engine).Run", "main.simulate"}, "network", false},
		{[]string{"runtime.mallocgc", "runtime.newobject", "holdcsim/internal/job.New", "holdcsim/internal/workload.SingleTask.NewJob"}, "job", true},
		{[]string{"holdcsim/internal/rng.(*Source).Float64", "holdcsim/internal/dist.Exponential.Sample"}, "workload", false},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc", false},
		{[]string{"runtime.futex", "runtime.mcall"}, "other", false},
		{[]string{"holdcsim/internal/runner.MapReps[...].func1"}, "runner", false},
	} {
		if layer, alloc := attribute(c.stack); layer != c.layer || alloc != c.alloc {
			t.Errorf("%v: %s alloc=%v, want %s alloc=%v", c.stack, layer, alloc, c.layer, c.alloc)
		}
	}
}
