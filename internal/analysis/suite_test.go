package analysis_test

import (
	"testing"

	"holdcsim/internal/analysis"
	"holdcsim/internal/analysis/atest"
)

func TestDeterminismFixture(t *testing.T) { atest.Run(t, "determinism") }

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
	if pkg.Types.Path() != "holdcsim/internal/simtime" {
		t.Fatalf("loaded %q, want holdcsim/internal/simtime", pkg.Types.Path())
	}
	if pkg.Types.Scope().Lookup("Time") == nil {
		t.Error("typechecked package is missing the Time type")
	}
	if diags := analysis.Check(pkg); len(diags) != 0 {
		t.Errorf("simtime should be clean, got %v", diags)
	}
}
