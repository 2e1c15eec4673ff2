package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"holdcsim/internal/runner"
	"holdcsim/internal/scenario"
)

const testdata = "../../internal/scenario/testdata"

// cli drives the binary in-process and captures stdout/stderr.
func cli(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// column returns the named column of a run's TSV, one value per row.
func column(t *testing.T, tsv, name string) []string {
	t.Helper()
	rows := strings.Split(strings.TrimSpace(tsv), "\n")
	i := slices.Index(strings.Split(rows[0], "\t"), name)
	if i < 0 {
		t.Fatalf("column %q missing from header %q", name, rows[0])
	}
	var vals []string
	for _, row := range rows[1:] {
		vals = append(vals, strings.Split(row, "\t")[i])
	}
	return vals
}

// TestExportReimportByteIdentical is the acceptance check: an exported
// preset, re-imported through the file codec and executed via
// `run -check`, produces byte-identical TSV output to the equivalent
// in-memory run, with zero invariant violations. The file round trip
// must not perturb a single event, draw, or float.
func TestExportReimportByteIdentical(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "fig5.json")
	if code, _, errw := cli(t, "export", "-preset", "fig5-delaytimer", "-o", file); code != 0 {
		t.Fatalf("export failed (%d): %s", code, errw)
	}

	code, got, errw := cli(t, "run", "-check", "-reps", "2", "-workers", "2", file)
	if code != 0 {
		t.Fatalf("run -check failed (%d): %s", code, errw)
	}

	// The in-memory equivalent: same preset value, same runner options,
	// same renderer — no file in the loop.
	s := scenario.Presets()["fig5-delaytimer"]
	want, violations, err := runScenarios(asLoaded([]scenario.Scenario{s}), runner.Options{Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("in-memory run reported %d violations", violations)
	}
	if got != want {
		t.Fatalf("file-driven TSV diverged from the in-memory run:\nfile:\n%s\nmemory:\n%s", got, want)
	}
	// The -check exit code already guarantees zero violations; this pins
	// the column rendering.
	if v := column(t, got, "violations"); !slices.Equal(v, []string{"0", "0"}) { // 2 replications
		t.Fatalf("violations column %v, want two zeros:\n%s", v, got)
	}
}

// TestRunChecksEveryScenarioFixture: every checked-in scenario and
// matrix file (comments, recorded traces, correlated faults) runs
// invariant-checked, one TSV row per scenario it holds.
func TestRunChecksEveryScenarioFixture(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(testdata, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures under %s (err %v)", testdata, err)
	}
	singles, matrices := 0, 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ss, isMatrix, err := scenario.DecodeAny(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if isMatrix {
			matrices++
		} else {
			singles++
		}
		code, out, errw := cli(t, "run", "-check", path)
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", path, code, errw)
			continue
		}
		if n := len(column(t, out, "label")); n != len(ss) {
			t.Errorf("%s: %d TSV rows for %d scenarios", path, n, len(ss))
		}
	}
	if singles == 0 || matrices == 0 {
		t.Fatalf("fixtures cover %d scenario and %d matrix files, want both", singles, matrices)
	}
}

// TestRunColumnsCarryResults: the columns after violations render the
// run's core.Results — the figures a single run is reported by — for a
// networked preset, where the network columns are nonzero.
func TestRunColumnsCarryResults(t *testing.T) {
	s, err := scenario.Preset("fig13-switch-validation")
	if err != nil {
		t.Fatal(err)
	}
	tsv, _, err := runScenarios(asLoaded([]scenario.Scenario{s}), runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := res.Results
	var residency []string
	for state := range r.Residency {
		residency = append(residency, state)
	}
	slices.Sort(residency)
	for i, state := range residency {
		residency[i] = fmt.Sprintf("%s=%g", state, r.Residency[state])
	}
	for _, c := range []struct {
		name string
		want any
	}{
		{"p90_ms", r.Latency.Percentile(90) * 1e3},
		{"max_ms", r.Latency.Max() * 1e3},
		{"cpu_J", r.CPUEnergyJ},
		{"dram_J", r.DRAMEnergyJ},
		{"platform_J", r.PlatformEnergyJ},
		{"server_wakeups", r.ServerWakeups},
		{"switch_wakeups", r.SwitchWakeups},
		{"flows_completed", r.NetStats.FlowsCompleted},
		{"pkts_delivered", r.NetStats.PacketsDelivered},
		{"pkts_dropped", r.NetStats.PacketsDropped},
		{"residency", strings.Join(residency, ";")},
	} {
		if got, want := column(t, tsv, c.name)[0], fmt.Sprint(c.want); got != want {
			t.Errorf("%s = %s, want %s", c.name, got, want)
		}
	}
	if r.NetStats.PacketsDelivered == 0 {
		t.Errorf("preset moved no packets: %+v", r.NetStats)
	}
}

// TestRunWorkerCountEquivalence: TSV bytes are identical at any worker
// count — the campaign determinism contract through the CLI path.
func TestRunWorkerCountEquivalence(t *testing.T) {
	file := filepath.Join(testdata, "matrix.json")
	_, one, errw := cli(t, "run", "-workers", "1", file)
	if one == "" {
		t.Fatalf("workers=1 produced no output: %s", errw)
	}
	_, four, _ := cli(t, "run", "-workers", "4", file)
	if one != four {
		t.Fatal("TSV output differs between workers=1 and workers=4")
	}
}

// TestValidateFixtures: every checked-in fixture validates, and the
// canonical label is printed for scenario files.
func TestValidateFixtures(t *testing.T) {
	code, out, errw := cli(t, "validate",
		filepath.Join(testdata, "fig5-delaytimer.json"),
		filepath.Join(testdata, "commented.json"),
		filepath.Join(testdata, "tracefile.json"),
		filepath.Join(testdata, "matrix.json"),
	)
	if code != 0 {
		t.Fatalf("validate failed (%d): %s", code, errw)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "s105/") {
		t.Errorf("scenario label missing from %q", lines[0])
	}
	if !strings.Contains(lines[3], "matrix, 16 valid scenarios") {
		t.Errorf("matrix summary missing from %q", lines[3])
	}
}

// TestValidateRejectsBadFile: a malformed file fails with a nonzero
// exit and a diagnostic, not a stack trace.
func TestValidateRejectsBadFile(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"servers": 4, "sevrers": 5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw := cli(t, "validate", bad)
	if code == 0 {
		t.Fatal("validate accepted a file with an unknown field")
	}
	if !strings.Contains(errw, "sevrers") {
		t.Errorf("diagnostic does not name the unknown field: %s", errw)
	}
}

// TestRunRejectsOldSchema: a file in a retired schema fails run and
// validate loudly, naming the field, rather than running with its
// settings ignored; a missing file fails too.
func TestRunRejectsOldSchema(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old.json")
	data := `{"workload": {"arrivals": "poisson", "rho": 0.3, "serviceSec": 0.005}, "delayTimerSec": 1}`
	if err := os.WriteFile(old, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, verb := range []string{"run", "validate"} {
		code, out, errw := cli(t, verb, old)
		if code == 0 {
			t.Fatalf("%s accepted an old-schema file:\n%s", verb, out)
		}
		if !strings.Contains(errw, `unknown field "workload"`) {
			t.Errorf("%s: diagnostic does not name the unknown field: %s", verb, errw)
		}
	}
	missing := filepath.Join(t.TempDir(), "missing.json")
	if code, _, errw := cli(t, "run", missing); code == 0 || errw == "" {
		t.Errorf("run of a missing file: exit %d, stderr %q; want a diagnosed failure", code, errw)
	}
}

// TestValidateRejectsHostileTopology: a shape the builder would refuse,
// or a shape or count sized to exhaust memory, fails validate — and run —
// with the bound's message before anything is built.
func TestValidateRejectsHostileTopology(t *testing.T) {
	const tail = `, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`
	for name, tc := range map[string]struct{ head, want string }{
		"fattree": {`{"topology": {"kind": "fattree", "a": 2642246}, "servers": 1`, "exceeds the cap"},
		"farm":    {`{"topology": {"kind": "none"}, "servers": 2000000000`, "servers exceed the bound"},
		"faults":  {`{"servers": 4, "faults": {"serverCrashes": 2000000000, "serverDownSec": 0.1}`, "exceeds the bound"},
		"dag":     {`{"servers": 4, "factory": {"kind": "dag", "width": 2000000000, "layers": 2000000000}`, "the bound of"},
	} {
		file := filepath.Join(t.TempDir(), name+".json")
		if err := os.WriteFile(file, []byte(tc.head+tail), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, verb := range []string{"validate", "run"} {
			code, _, errw := cli(t, verb, file)
			if code != 1 || !strings.Contains(errw, tc.want) {
				t.Errorf("%s %s: exit %d, stderr %q; want exit 1 naming the bound (%q)", verb, name, code, errw, tc.want)
			}
		}
	}
}

// TestExpandMatrix: expand prints one injective label per generated
// scenario.
func TestExpandMatrix(t *testing.T) {
	code, out, errw := cli(t, "expand", filepath.Join(testdata, "matrix.json"))
	if code != 0 {
		t.Fatalf("expand failed (%d): %s", code, errw)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 16 {
		t.Fatalf("expanded to %d labels, want 16:\n%s", len(lines), out)
	}
	seen := make(map[string]bool)
	for _, l := range lines {
		if seen[l] {
			t.Fatalf("duplicate label %q", l)
		}
		seen[l] = true
	}
}

// TestRunTraceFileScenario: an externally recorded arrival trace
// replays through the invariant-checked path — the tentpole's
// end-to-end proof. The relative traceFile path resolves against the
// scenario file's directory.
func TestRunTraceFileScenario(t *testing.T) {
	code, out, errw := cli(t, "run", "-check", filepath.Join(testdata, "tracefile.json"))
	if code != 0 {
		t.Fatalf("run -check failed (%d): %s", code, errw)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want header + 1:\n%s", len(rows), out)
	}
	if column(t, out, "generated")[0] == "0" {
		t.Fatalf("trace replay generated zero jobs:\n%s", out)
	}
	if column(t, out, "violations")[0] != "0" {
		t.Fatalf("violations in trace replay:\n%s", out)
	}
}

// TestRunCorrelatedFaultScenario: the checked-in correlated-failure
// fixture — outage-log replay plus a renewal process and cascades —
// runs invariant-clean through the CLI, the relative outage traceFile
// resolves against the scenario file's directory, and the fault-ledger
// TSV columns carry real counts.
func TestRunCorrelatedFaultScenario(t *testing.T) {
	code, out, errw := cli(t, "run", "-check", filepath.Join(testdata, "correlated.json"))
	if code != 0 {
		t.Fatalf("run -check failed (%d): %s", code, errw)
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want header + 1:\n%s", len(rows), out)
	}
	if column(t, out, "faults_applied")[0] == "0" {
		t.Fatalf("correlated fixture applied zero faults:\n%s", out)
	}
	if column(t, out, "violations")[0] != "0" {
		t.Fatalf("violations in correlated run:\n%s", out)
	}
	// Byte-determinism through the CLI: a second run is identical.
	_, again, _ := cli(t, "run", "-check", filepath.Join(testdata, "correlated.json"))
	if out != again {
		t.Fatal("correlated fixture TSV differs across runs")
	}
}

// TestTraceFileLabelIgnoresInvocationDir is the regression test for
// the path-dependent-label bug: the canonical label (and so the
// replication seeds derived from it) must come from the scenario file
// as written, not from the CLI-resolved trace path — the same (file,
// trace) pair run from two directories is the same experiment.
func TestTraceFileLabelIgnoresInvocationDir(t *testing.T) {
	items, _, err := loadFile(filepath.Join(testdata, "tracefile.json"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(items[0].label, testdata) {
		t.Errorf("label leaks the invocation-relative path: %s", items[0].label)
	}
	if !strings.Contains(items[0].label, `"arrivals.trace"`) {
		t.Errorf("label does not carry the as-written trace path: %s", items[0].label)
	}
	if !strings.HasSuffix(items[0].s.Arrival.TraceFile, filepath.Join(testdata, "arrivals.trace")) {
		t.Errorf("execution path not resolved against the file dir: %s", items[0].s.Arrival.TraceFile)
	}
	// And the TSV carries the as-written label, so reps reproduce
	// anywhere.
	_, out, _ := cli(t, "run", filepath.Join(testdata, "tracefile.json"))
	if !strings.Contains(out, `"arrivals.trace"`) || strings.Contains(out, testdata) {
		t.Errorf("TSV label depends on the invocation dir:\n%s", out)
	}
}

// TestRunMissingTraceFile: a scenario pointing at a nonexistent trace
// errors cleanly.
func TestRunMissingTraceFile(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "s.json")
	data := `{"servers": 2, "arrival": {"kind": "trace-file", "rho": 0.3, "traceFile": "nope.trace"}, "maxJobs": 10}`
	if err := os.WriteFile(file, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errw := cli(t, "run", file)
	if code == 0 {
		t.Fatal("run succeeded against a missing trace file")
	}
	if !strings.Contains(errw, "nope.trace") {
		t.Errorf("diagnostic does not name the missing trace: %s", errw)
	}
}

// TestExportRandomRoundTrip: `export -random` output re-imports to the
// exact Random draw (including seed 0, a flag-presence corner).
func TestExportRandomRoundTrip(t *testing.T) {
	for _, seed := range []string{"0", "424242"} {
		dir := t.TempDir()
		file := filepath.Join(dir, "r.json")
		if code, _, errw := cli(t, "export", "-random", seed, "-o", file); code != 0 {
			t.Fatalf("export -random %s failed: %s", seed, errw)
		}
		code, out, errw := cli(t, "validate", file)
		if code != 0 {
			t.Fatalf("validate of exported draw failed (%d): %s", code, errw)
		}
		if !strings.Contains(out, "s"+seed+"/") && seed != "0" {
			t.Errorf("label does not carry the seed: %s", out)
		}
	}
}

// TestExportListAndMatrix: the discovery paths work.
func TestExportListAndMatrix(t *testing.T) {
	code, out, _ := cli(t, "export", "-list")
	if code != 0 {
		t.Fatal("export -list failed")
	}
	names := strings.Split(strings.TrimSpace(out), "\n")
	if len(names) != 10 {
		t.Fatalf("listed %d presets, want 10:\n%s", len(names), out)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "m.json")
	if code, _, errw := cli(t, "export", "-matrix", "-o", file); code != 0 {
		t.Fatalf("export -matrix failed: %s", errw)
	}
	code, out, errw := cli(t, "expand", file)
	if code != 0 {
		t.Fatalf("expand of exported matrix failed (%d): %s", code, errw)
	}
	if n := len(strings.Split(strings.TrimSpace(out), "\n")); n != 16 {
		t.Fatalf("demo matrix expanded to %d labels, want 16", n)
	}
}

// TestEveryPresetExportsAndValidates closes the loop over the whole
// preset table through the real filesystem path.
func TestEveryPresetExportsAndValidates(t *testing.T) {
	dir := t.TempDir()
	for _, name := range scenario.PresetNames() {
		file := filepath.Join(dir, name+".json")
		if code, _, errw := cli(t, "export", "-preset", name, "-o", file); code != 0 {
			t.Fatalf("export -preset %s failed: %s", name, errw)
		}
		if code, _, errw := cli(t, "validate", file); code != 0 {
			t.Fatalf("validate of exported %s failed: %s", name, errw)
		}
	}
}

// TestBadInvocations: argument errors exit 2 (usage) or 1 (load
// failure) without panicking.
func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"validate"},
		{"expand"},
		{"run"},
		{"export"},
		{"export", "-preset", "no-such-preset"},
		{"validate", "no-such-file.json"},
	}
	for _, args := range cases {
		if code, _, _ := cli(t, args...); code == 0 {
			t.Errorf("args %v exited 0", args)
		}
	}
	if code, _, _ := cli(t, "help"); code != 0 {
		t.Error("help exited nonzero")
	}
}
