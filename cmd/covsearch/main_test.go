package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"holdcsim/internal/scenario"
)

func TestRunCampaignWritesCorpus(t *testing.T) {
	out := filepath.Join(t.TempDir(), "corpus.txt")
	var stdout, stderr strings.Builder
	code := run([]string{"-execs", "24", "-seed", "3", "-maxjobs", "60",
		"-top", "5", "-out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got := stdout.String()
	for _, want := range []string{"search:", "never hit", "minimized corpus:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	entries, err := scenario.ReadCorpus(out)
	if err != nil {
		t.Fatalf("reading written corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("campaign wrote an empty corpus")
	}
	for _, e := range entries {
		if e.Gain <= 0 {
			t.Fatalf("minimized entry %+v has non-positive gain", e)
		}
	}
}

// TestMaxJobsZeroMeansDefault: -maxjobs 0 is the default bound for the
// campaign and its minimization alike, so the written corpus is the one
// -maxjobs 800 writes.
func TestMaxJobsZeroMeansDefault(t *testing.T) {
	var files [2][]byte
	for i, maxJobs := range []string{"0", "800"} {
		out := filepath.Join(t.TempDir(), "corpus.txt")
		var stdout, stderr strings.Builder
		if code := run([]string{"-execs", "16", "-seed", "3", "-maxjobs", maxJobs,
			"-out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("-maxjobs %s: exit %d, stderr: %s", maxJobs, code, stderr.String())
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = b
	}
	if string(files[0]) != string(files[1]) {
		t.Fatalf("-maxjobs 0 and -maxjobs 800 wrote different corpora:\n%s\nvs\n%s", files[0], files[1])
	}
}

func TestRunSeedsFromCorpusDir(t *testing.T) {
	dir := t.TempDir()
	seedFile := filepath.Join(dir, "seed.txt")
	if err := scenario.WriteCorpus(seedFile,
		[]scenario.CorpusEntry{{Seed: 3, Mut: 0, Gain: 1}}); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	code := run([]string{"-execs", "8", "-seed", "4", "-maxjobs", "40",
		"-corpus", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "seed corpus: 1 entries") {
		t.Fatalf("seed corpus not reported:\n%s", stdout.String())
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"extra"}, &stdout, &stderr); code != 2 {
		t.Fatalf("positional args: exit %d, want 2", code)
	}
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	// "[" is a malformed glob pattern, the one error ReadCorpusDir
	// surfaces for a directory argument (a merely missing dir is an
	// empty corpus by design).
	if code := run([]string{"-corpus", "["}, &stdout, &stderr); code != 1 {
		t.Fatalf("bad corpus dir: exit %d, want 1", code)
	}
}
