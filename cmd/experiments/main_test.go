package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"holdcsim/internal/experiments"
)

// TestRunEveryExperimentQuick sweeps all paper experiments in -quick
// mode: each must exit 0 and print its banner. This is the smoke net
// for the experiment runners themselves — the numeric results are
// pinned by the golden tests in internal/experiments.
func TestRunEveryExperimentQuick(t *testing.T) {
	for _, e := range experiments.Registry {
		exp := e.Name
		t.Run(exp, func(t *testing.T) {
			t.Parallel()
			var stdout, stderr strings.Builder
			code := run([]string{"-exp", exp, "-quick"}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), "==== "+exp+" ====") {
				t.Fatalf("banner missing:\n%s", stdout.String())
			}
		})
	}
}

func TestRunSingleExperimentQuick(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "table1", "-quick"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got := stdout.String()
	if !strings.Contains(got, "==== table1 ====") || !strings.Contains(got, "capability") {
		t.Fatalf("table1 output missing:\n%s", got)
	}
}

func TestRunWritesTSV(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	code := run([]string{"-exp", "fig5", "-quick", "-workers", "2", "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig5.tsv"))
	if err != nil {
		t.Fatalf("fig5.tsv not written: %v", err)
	}
	if !strings.Contains(string(data), "\t") {
		t.Fatalf("fig5.tsv is not TSV:\n%s", data)
	}
	if !strings.Contains(stdout.String(), "optimal tau") {
		t.Fatalf("fig5 summary missing:\n%s", stdout.String())
	}
}

// The golden file is what the CLI writes: fig5.tsv from -out is, byte
// for byte, the table section of the golden the suites in
// internal/experiments pin (the rest of the golden is its pinned lines).
func TestOutFileIsGoldenTableSection(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr strings.Builder
	if code := run([]string{"-exp", "fig5", "-quick", "-out", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got, err := os.ReadFile(filepath.Join(dir, "fig5.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments",
		"testdata", "golden", "fig5.golden.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	rest, ok := strings.CutPrefix(string(golden), string(got))
	if !ok || len(got) == 0 {
		t.Fatalf("fig5.tsv is not a prefix of fig5.golden.tsv:\n%s", got)
	}
	for _, line := range strings.Split(strings.TrimSuffix(rest, "\n"), "\n") {
		if !strings.HasPrefix(line, "optimal_tau\t") {
			t.Errorf("golden line after the table is not a pinned optimum: %q", line)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-exp", "fig99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown experiment: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Fatalf("stderr: %s", stderr.String())
	}
	if code := run([]string{"-badflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
}
