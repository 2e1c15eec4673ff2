package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"holdcsim/internal/runner"
	"holdcsim/internal/scenario"
)

const fixtureDir = "../../internal/scenario/testdata"

// -config is the scenario codec's front door: every checked-in
// single-scenario fixture (comments, recorded traces, correlated faults)
// loads and runs invariant-checked, and a matrix file is refused with a
// pointer to the campaign runner rather than silently run as its first
// point.
func TestConfigRunsEveryScenarioFixture(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(fixtureDir, "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fixtures under %s (err %v)", fixtureDir, err)
	}
	singles, matrices := 0, 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, isMatrix, err := scenario.DecodeAny(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var stdout, stderr strings.Builder
		code := run([]string{"-config", path}, &stdout, &stderr)
		if isMatrix {
			matrices++
			if code == 0 || !strings.Contains(stderr.String(), "cmd/scenario run") {
				t.Errorf("%s: matrix file: exit %d, stderr %q", path, code, stderr.String())
			}
			continue
		}
		singles++
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", path, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "jobs: generated") {
			t.Errorf("%s: no report:\n%s", path, stdout.String())
		}
	}
	if singles == 0 || matrices == 0 {
		t.Fatalf("fixtures cover %d scenario and %d matrix files, want both", singles, matrices)
	}
}

// A file in the command's retired private schema must fail loudly, with
// the unknown field named, not run with its settings ignored.
func TestConfigRejectsOldSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	old := `{"workload": {"arrivals": "poisson", "rho": 0.3, "serviceSec": 0.005}, "delayTimerSec": 1}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-config", path}, &stdout, &stderr); code == 0 {
		t.Fatalf("old-schema file accepted:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `unknown field "workload"`) {
		t.Fatalf("error does not name the unknown field: %s", stderr.String())
	}
	for _, args := range [][]string{
		{"-config", filepath.Join(t.TempDir(), "missing.json")},
		{"-policy", "oracle"},
		{"-service", "5ms"},
		{"-cores", "7"},
		{"-rho", "2"},
		{"-policy", "netaware"}, // needs a topology the flag form cannot give
		{"stray"},
	} {
		stderr.Reset()
		if code := run(args, io.Discard, &stderr); code == 0 || stderr.Len() == 0 {
			t.Errorf("%v: exit %d, stderr %q; want a diagnosed failure", args, code, stderr.String())
		}
	}
}

// The flag form synthesizes an ordinary scenario: it validates, and it
// survives the codec round trip unchanged, so any flag run can be saved
// as a file and replayed through -config.
func TestFlagSynthesisRoundTrips(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-servers", "8", "-cores", "10", "-rho", "0.7", "-service", "wikipedia",
			"-policy", "dualtimer", "-tau", "250ms", "-duration", "5s", "-seed", "18446744073709551615"},
		{"-policy", "provisioner", "-service", "webserving", "-tau", "0s"},
	} {
		s, err := load(args, io.Discard, new(runner.Profiles))
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%v: synthesized scenario invalid: %v", args, err)
		}
		data, err := scenario.Encode(s)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		back, err := scenario.Decode(data)
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if back != s {
			t.Errorf("%v: round trip changed the scenario:\n got %v\nwant %v", args, back, s)
		}
	}
}

// Each flag lands in the scenario field it names.
func TestFlagsCarryIntoScenario(t *testing.T) {
	var prof runner.Profiles
	s, err := load([]string{"-cores", "10", "-tau", "1s", "-policy", "packfirst",
		"-service", "webserving", "-servers", "3", "-rho", "0.5", "-duration", "4s", "-seed", "9",
		"-cpuprofile", "cpu.out", "-memprofile", "mem.out"}, io.Discard, &prof)
	if err != nil {
		t.Fatal(err)
	}
	if prof != (runner.Profiles{CPU: "cpu.out", Mem: "mem.out"}) {
		t.Errorf("profile flags = %+v", prof)
	}
	want := scenario.Scenario{
		Seed: 9, Servers: 3, Profile: scenario.ProfXeon10, DelayTimerSec: 1,
		Placer:      scenario.PlacerSpec{Kind: scenario.PlPackFirst},
		Arrival:     scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.5},
		Factory:     scenario.FactorySpec{Service: scenario.SvcWebServing},
		DurationSec: 4,
	}
	if s != want {
		t.Errorf("flags not carried into the scenario:\n got %v\nwant %v", s, want)
	}
}

// Same flags, same bytes: everything after the wall-clock banner line is
// a pure function of the command line.
func TestFlagRunsDeterministic(t *testing.T) {
	args := []string{"-servers", "8", "-duration", "2s", "-tau", "50ms", "-rho", "0.2", "-seed", "3"}
	var outs [2]string
	for i := range outs {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, stderr.String())
		}
		banner, rest, ok := strings.Cut(stdout.String(), "\n")
		if !ok || !strings.HasPrefix(banner, "simulated 2.000 s in ") {
			t.Fatalf("unexpected banner %q", banner)
		}
		outs[i] = rest
	}
	if outs[0] != outs[1] || !strings.Contains(outs[0], "residency:") {
		t.Fatalf("runs differ or are empty:\n%s\n---\n%s", outs[0], outs[1])
	}
}
