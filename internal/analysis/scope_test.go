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
		{"holdcsim/internal/analysis", false},    // the suite itself is not a model
		{"holdcsim/cmd/simlint", true},           // every cmd/ is in scope
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

func TestFirstParty(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"holdcsim/internal/engine", true},
		{"holdcsim/cmd/simlint", true},
		{"holdcsim", true},
		{"fmt", false},
		{"holdcsimx/internal/engine", false},
	}
	for _, c := range cases {
		if got := isFirstParty(c.path); got != c.want {
			t.Errorf("isFirstParty(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestPassNamesMatchSuite(t *testing.T) {
	names := passNames()
	for _, a := range Suite() {
		if !names[a.Name] {
			t.Errorf("passNames missing %q", a.Name)
		}
	}
	if names["wallclock"] {
		t.Error("passNames contains an analyzer that does not exist")
	}
}
