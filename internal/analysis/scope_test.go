package analysis

import "testing"

func TestIsModelPackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"holdcsim/internal/engine", true},
		{"holdcsim/internal/scenario/sub", true},
		{"holdcsim/internal/validate", true},
		{"holdcsim/internal/runner", true},
		{"holdcsim/cmd/scenario", true},
		{"holdcsim/examples/quickstart", true},
		{"holdcsim", true},                          // the root facade
		{"holdcsim/internal/analysis", false},       // the check itself
		{"holdcsim/internal/analysis/atest", false}, // and its harness
		{"holdcsim/internal/analysisx", true},       // a prefix is not the package
		{"holdcsimx/internal/engine", false},
		{"fmt", false},
		{"golang.org/x/tools/go/ast", false},
	}
	for _, c := range cases {
		if got := isModelPackage(c.path); got != c.want {
			t.Errorf("isModelPackage(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
