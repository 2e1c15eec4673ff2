package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"holdcsim/internal/fault"
	"holdcsim/internal/runner"
)

// The golden suite pins the byte-exact output of every Quick preset.
// Any accidental determinism break — a map iteration leaking into
// simulation state, a seed stream perturbed by reordered Split calls, a
// runner scheduling bug — fails tier-1 with a line-level diff. Refresh
// intentionally changed outputs with:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenCase renders one Quick preset to its deterministic text output:
// the report's pinned parts (Report.Golden). The same renderings back
// the check, worker-count equivalence and fault-free suites.
type goldenCase struct {
	name string
	run  func(exec runner.Options, check bool, faults *fault.Spec) (string, error)
}

// goldenCases is the registry's paper experiments.
func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, e := range Registry {
		if !e.Paper {
			continue
		}
		e := e
		cases = append(cases, goldenCase{e.Name, func(exec runner.Options, check bool, faults *fault.Spec) (string, error) {
			rep, err := e.Run(true, exec, check, faults)
			if err != nil {
				return "", err
			}
			return rep.Golden(), nil
		}})
	}
	return cases
}

// TestRegistryMatchesGoldens: every paper experiment has a golden file
// and every golden file has a paper experiment, so neither an
// unpinned experiment nor an orphaned file can sit in the tree.
func TestRegistryMatchesGoldens(t *testing.T) {
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, c := range goldenCases() {
		want = append(want, goldenPath(c.name))
	}
	sort.Strings(want) // Glob returns sorted paths
	if len(want) == 0 || !reflect.DeepEqual(files, want) {
		t.Errorf("golden files and paper experiments differ:\n files: %v\n registry: %v", files, want)
	}
}

// An entry declared without a runner is an error at run time, not a
// nil-call panic in the CLI loop.
func TestExperimentWithoutRunner(t *testing.T) {
	if _, err := (Experiment{Name: "empty"}).Run(true, runner.Options{}, false, nil); err == nil {
		t.Fatal("zero Experiment ran")
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden.tsv")
}

func TestGoldenQuickPresets(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run(runner.Options{}, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			path := goldenPath(c.name)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("no golden file (regenerate with -update): %v", err)
			}
			if got == string(want) {
				return
			}
			gotLines := strings.Split(got, "\n")
			wantLines := strings.Split(string(want), "\n")
			for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
				var g, w string
				if i < len(gotLines) {
					g = gotLines[i]
				}
				if i < len(wantLines) {
					w = wantLines[i]
				}
				if g != w {
					t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(%d vs %d lines; refresh intentional changes with -update)",
						path, i+1, g, w, len(gotLines), len(wantLines))
				}
			}
			t.Fatalf("output differs from %s in line endings only", path)
		})
	}
}

// Golden renders the pinned parts: the bytes of
// testdata/golden/<name>.golden.tsv.
func (r *Report) Golden() string {
	var b strings.Builder
	for _, p := range r.Pinned {
		if p.Table != nil {
			b.WriteString(p.Table.String())
		} else {
			b.WriteString(p.Line + "\n")
		}
	}
	return b.String()
}
