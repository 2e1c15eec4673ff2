package main

import (
	"bytes"
	"os"
	"path/filepath"
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
	if !strings.Contains(got, "\t0\t0\n") && !strings.HasSuffix(strings.TrimSpace(got), "\t0") {
		// Every row's last column is the violation count; the -check exit
		// code already guarantees zero, this pins the column rendering.
		t.Fatalf("unexpected TSV tail:\n%s", got)
	}
	rows := strings.Split(strings.TrimSpace(got), "\n")
	if len(rows) != 3 { // header + 2 replications
		t.Fatalf("got %d TSV rows, want 3:\n%s", len(rows), got)
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
	cols := strings.Split(rows[1], "\t")
	if cols[4] == "0" {
		t.Fatalf("trace replay generated zero jobs:\n%s", out)
	}
	if cols[len(cols)-1] != "0" {
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
	head := strings.Split(rows[0], "\t")
	cols := strings.Split(rows[1], "\t")
	idx := func(name string) string {
		t.Helper()
		for i, h := range head {
			if h == name {
				return cols[i]
			}
		}
		t.Fatalf("column %q missing from header: %v", name, head)
		return ""
	}
	if idx("faults_applied") == "0" {
		t.Fatalf("correlated fixture applied zero faults:\n%s", out)
	}
	if idx("violations") != "0" {
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
