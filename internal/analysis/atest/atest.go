// Package atest is the fixture harness for the determinism check — the
// analysistest role, self-contained on the standard library like the
// check itself. A fixture is a directory tree under
// internal/analysis/testdata/<name>/ shaped like a miniature module:
// packages under internal/... get the real module's import paths, so
// package-scoped rules (model packages, the runner exemption) apply in
// fixtures exactly as in the tree.
//
// Expected findings are `// want "regexp"` comments on the offending
// line. Run copies the fixture into a temp module, loads and analyzes
// every package, and fails on any unmatched finding or unmet want.
package atest

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"holdcsim/internal/analysis"
)

// wantRe extracts the expectation from a `// want "..."` comment. The
// payload is a regexp matched against the finding's message.
var wantRe = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)

// expectation is one `// want` comment.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hits int
}

// Run copies fixture directory testdata/<name> into a fresh module,
// runs the determinism check over it, and compares findings against the
// fixture's want comments.
func Run(t *testing.T, name string) {
	t.Helper()
	src, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := copyTree(src, dir); err != nil {
		t.Fatalf("copying fixture %s: %v", name, err)
	}
	gomod := filepath.Join(dir, "go.mod")
	if err := os.WriteFile(gomod, []byte("module holdcsim\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}

	pkgs, err := analysis.Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.Check(pkg)...)
	}

	wants, err := collectWants(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		rel, _ := filepath.Rel(dir, d.Pos.Filename)
		matched := false
		for _, w := range wants {
			if w.file == rel && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hits++
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected finding: %s", rel, d.Pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

// collectWants scans every non-test .go file under dir for want
// comments.
func collectWants(dir string) ([]*expectation, error) {
	var wants []*expectation
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(dir, path)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					return err
				}
				wants = append(wants, &expectation{file: rel, line: line, re: re})
			}
		}
		return sc.Err()
	})
	return wants, err
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o666)
	})
}
