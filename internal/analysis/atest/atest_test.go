package atest

import (
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeFixture runs the harness end to end on its own minimal
// fixture: the want comment must match the one finding.
func TestSmokeFixture(t *testing.T) {
	Run(t, "smoke")
}

// TestCollectWants checks want parsing: line binding and regex payloads
// with escapes.
func TestCollectWants(t *testing.T) {
	dir := t.TempDir()
	src := `package p
var a = 1 // want "first \{finding\}"
// a comment
var b = 2 // want "second"
var c = 3 // no expectation here
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	wants, err := collectWants(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(wants) != 2 {
		t.Fatalf("parsed %d wants, want 2", len(wants))
	}
	if wants[0].line != 2 || !wants[0].re.MatchString("first {finding}") {
		t.Errorf("want[0] = line %d re %v", wants[0].line, wants[0].re)
	}
	if wants[1].line != 4 || !wants[1].re.MatchString("second") {
		t.Errorf("want[1] = line %d re %v", wants[1].line, wants[1].re)
	}
}

func TestCopyTree(t *testing.T) {
	src := t.TempDir()
	if err := os.MkdirAll(filepath.Join(src, "a/b"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "a/b/f.txt"), []byte("x"), 0o666); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	if err := copyTree(src, dst); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dst, "a/b/f.txt"))
	if err != nil || string(data) != "x" {
		t.Fatalf("copied file = %q, %v", data, err)
	}
}
