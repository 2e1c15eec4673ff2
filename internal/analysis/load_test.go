package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

func TestExportLookup(t *testing.T) {
	f := filepath.Join(t.TempDir(), "x.a")
	if err := os.WriteFile(f, []byte("export"), 0o666); err != nil {
		t.Fatal(err)
	}
	lookup := exportLookup(map[string]string{"time": f})
	rc, err := lookup("time")
	if err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if _, err := lookup("fmt"); err == nil {
		t.Fatal("lookup of unknown path succeeded")
	}
}

func TestTypecheckErrors(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.go")
	if err := os.WriteFile(bad, []byte("package p\nfunc {"), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := typecheck(token.NewFileSet(), "p", dir, []string{"bad.go"}, nil); err == nil {
		t.Fatal("parse error not reported")
	}
}

func TestLoadBadPattern(t *testing.T) {
	if _, err := Load("..", []string{"./nonexistent-dir-xyz/..."}); err == nil {
		t.Fatal("go list failure not reported")
	}
}
