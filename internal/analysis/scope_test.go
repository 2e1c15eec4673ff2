package analysis

import "testing"

func TestIsModelPackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"holdcsim/internal/engine", true},
		{"holdcsim/internal/scenario", true},
		{"holdcsim/internal/scenario/sub", true}, // scoped by top-level name
		{"holdcsim/internal/analysis", false},    // the check itself is not a model
		{"holdcsim/cmd/scenario", true},          // every cmd/ is in scope
		{"holdcsim", false},
		{"holdcsim/examples/basic", false},
		{"fmt", false},
		{"golang.org/x/tools/go/ast", false},
	}
	for _, c := range cases {
		if got := isModelPackage(c.path); got != c.want {
			t.Errorf("isModelPackage(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}
