package holdcsim_test

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"holdcsim/internal/modelcov"
)

// secRef is a reference to a DESIGN.md section: the paper's sections are
// roman (Sec. IV-D), so a section with an arabic number is DESIGN.md's.
var secRef = regexp.MustCompile(`Secs?\.\s+(\d+(?:\.\d+)?)`)

// TestSectionReferencesResolve: every DESIGN.md section reference in the
// Go sources (tests included), CI, the verify skill, ROADMAP.md and
// DESIGN.md itself names a heading DESIGN.md has — "## N." or
// "### N.M". CHANGES.md is history and may cite sections that are gone.
func TestSectionReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^(?:## (\d+)\.|### (\d+\.\d+)) `).FindAllStringSubmatch(string(design), -1) {
		headings[m[1]+m[2]] = true
	}
	files := []string{"DESIGN.md", "ROADMAP.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, and build caches such as .bench_build
		}
		if strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range secRef.FindAllStringSubmatch(string(data), -1) {
			refs++
			if !headings[m[1]] {
				t.Errorf("%s: %q names no DESIGN.md heading", path, m[0])
			}
		}
	}
	if len(headings) < 14 || refs < 20 {
		t.Fatalf("found %d headings and %d references; the scan is broken", len(headings), refs)
	}
}

// TestFeatureTableMatchesNames: the group patterns in the first column of
// DESIGN.md Sec. 12.1's table, matched against modelcov.Name over every
// feature, cover each feature exactly once.
func TestFeatureTableMatchesNames(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(design)
	start, end := strings.Index(sec, "### 12.1 "), strings.Index(sec, "### 12.2 ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no Sec. 12.1 followed by Sec. 12.2")
	}
	var patterns []string
	for _, line := range strings.Split(sec[start:end], "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "| `") {
			for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(cells[1], -1) {
				patterns = append(patterns, m[1])
			}
		}
	}
	for f := 0; f < modelcov.NumFeatures; f++ {
		name := modelcov.Name(modelcov.Feature(f))
		var hits []string
		for _, p := range patterns {
			if ok, err := path.Match(p, name); err != nil {
				t.Fatalf("pattern %q: %v", p, err)
			} else if ok {
				hits = append(hits, p)
			}
		}
		if len(hits) != 1 {
			t.Errorf("feature %s matches %d table patterns %v, want exactly 1", name, len(hits), hits)
		}
	}
}
