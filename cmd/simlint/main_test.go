package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStandaloneCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-C", "../..", "./internal/simtime"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean package produced output %q", out.String())
	}
}

// TestStandaloneFindings points simlint at a copy of the determinism
// fixture and checks findings surface with exit code 2, in both text
// and -json form.
func TestStandaloneFindings(t *testing.T) {
	dir := fixtureModule(t)

	var out, errb bytes.Buffer
	code := run([]string{"-C", dir, "./..."}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit %d, want 2; stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "[determinism]") ||
		!strings.Contains(out.String(), "time.Now in model package") {
		t.Fatalf("text output missing expected finding:\n%s", out.String())
	}

	out.Reset()
	code = run([]string{"-json", "-C", dir, "./..."}, &out, &errb)
	if code != 2 {
		t.Fatalf("-json exit %d, want 2", code)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Column   int    `json:"column"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json reported no findings")
	}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 || d.Analyzer == "" || d.Message == "" {
			t.Fatalf("incomplete JSON diagnostic: %+v", d)
		}
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "-C", "../..", "./internal/simtime"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Fatalf("clean -json output = %q, want []", got)
	}
}

func TestUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 1 {
		t.Fatalf("bad flag exited %d, want 1", code)
	}
}

// fixtureModule copies the determinism fixture into a temp module and
// returns its root.
func fixtureModule(t *testing.T) string {
	t.Helper()
	src, err := filepath.Abs("../../internal/analysis/testdata/determinism")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dir, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"),
		[]byte("module holdcsim\n\ngo 1.22\n"), 0o666); err != nil {
		t.Fatal(err)
	}
	return dir
}
