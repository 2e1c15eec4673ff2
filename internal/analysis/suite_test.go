package analysis_test

import (
	"testing"

	"holdcsim/internal/analysis"
	"holdcsim/internal/analysis/atest"
)

func TestDeterminismFixture(t *testing.T) { atest.Run(t, "determinism") }

// TestStaleExemptionFixture: a runner package whose StartStopwatch reads
// no clock makes the exemption suppress nothing, which is a finding.
func TestStaleExemptionFixture(t *testing.T) { atest.Run(t, "stale-exemption") }

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
	if diags := analysis.Check(pkg); len(diags) != 0 {
		t.Errorf("simtime should be clean, got %v", diags)
	}
}

// TestDiagnosticString locks the finding format the tree test prints.
func TestDiagnosticString(t *testing.T) {
	d := analysis.Diagnostic{Message: "m"}
	d.Pos.Filename, d.Pos.Line, d.Pos.Column = "f.go", 3, 7
	if got, want := d.String(), "f.go:3:7: m"; got != want {
		t.Errorf("Diagnostic.String() = %q, want %q", got, want)
	}
}
