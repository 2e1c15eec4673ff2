package runner

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var profiled []byte // keeps the profiled allocation on the heap

// The flags name files, Start/stop write them, and with no flags set
// nothing is created.
func TestProfilesWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")

	var off Profiles
	stop, err := off.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("profiling off, yet %d file(s) were written", len(left))
	}

	var p Profiles
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	p.AddFlags(fs)
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err = p.Start()
	if err != nil {
		t.Fatal(err)
	}
	profiled = make([]byte, 1<<20)
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("%s: missing or empty (%v)", path, err)
		}
	}

	// An unwritable path is reported, at Start for the CPU profile and at
	// stop for the allocation profile.
	bad := filepath.Join(dir, "no-such-dir", "x.pprof")
	if _, err := (Profiles{CPU: bad}).Start(); err == nil {
		t.Error("Start accepted an unwritable -cpuprofile path")
	}
	stop, err = Profiles{Mem: bad}.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("stop accepted an unwritable -memprofile path")
	}
}
