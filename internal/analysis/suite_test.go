package analysis_test

import (
	"strings"
	"testing"

	"holdcsim/internal/analysis"
	"holdcsim/internal/analysis/atest"
)

func TestDeterminismFixture(t *testing.T) { atest.Run(t, "determinism") }
func TestHotpathFixture(t *testing.T)     { atest.Run(t, "hotpath") }
func TestAnnotationFixture(t *testing.T)  { atest.Run(t, "annotation") }

// TestSuiteShape locks the analyzer inventory: names are the annotation
// vocabulary, so adding or renaming a pass is an API change.
func TestSuiteShape(t *testing.T) {
	want := []string{"annotation", "determinism", "hotpath"}
	suite := analysis.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}

// TestLoadRealPackage exercises the go-list-export loader against a real
// module package end to end.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := analysis.Load("../..", []string{"./internal/simtime"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != "holdcsim/internal/simtime" {
		t.Fatalf("loaded %q, want holdcsim/internal/simtime", pkg.Path)
	}
	if pkg.Types.Scope().Lookup("Time") == nil {
		t.Error("typechecked package is missing the Time type")
	}
	if diags := analysis.RunSuite(pkg); len(diags) != 0 {
		t.Errorf("simtime should be clean, got %v", diags)
	}
}

// TestDiagnosticString locks the human-readable finding format the CLI
// prints.
func TestDiagnosticString(t *testing.T) {
	pkgs, err := analysis.Load("../..", []string{"./internal/analysis/atest"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	d := analysis.Diagnostic{Analyzer: "determinism", Message: "m"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "f.go", 3, 7
	if got, want := d.String(), "f.go:3:7: [determinism] m"; !strings.HasPrefix(got, want) {
		t.Errorf("Diagnostic.String() = %q, want prefix %q", got, want)
	}
}
