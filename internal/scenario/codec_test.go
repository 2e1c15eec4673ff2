package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"holdcsim/internal/fault"
	"holdcsim/internal/network"
	"holdcsim/internal/sched"
)

// update regenerates the golden scenario file (same convention as the
// experiments golden suite).
var update = flag.Bool("update", false, "rewrite golden scenario files")

// TestPresetsValidAndRunnable: all nine presets validate, carry
// distinct labels, and actually run with zero invariant violations —
// the preset table is the format's living documentation, so a rotten
// entry would document a lie.
func TestPresetsValidAndRunnable(t *testing.T) {
	presets := Presets()
	if len(presets) != 10 {
		t.Fatalf("%d presets, want 10 (one per paper artifact plus fault-correlated)", len(presets))
	}
	labels := make(map[string]string)
	for name, s := range presets {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
		if prev, dup := labels[s.String()]; dup {
			t.Errorf("presets %s and %s share label %s", name, prev, s.String())
		}
		labels[s.String()] = name
	}
	if testing.Short() {
		return
	}
	for name, s := range presets {
		res, err := s.Run()
		if err != nil {
			t.Errorf("preset %s failed: %v", name, err)
			continue
		}
		if len(res.Violations) != 0 {
			t.Errorf("preset %s: %v", name, res.Violations)
		}
		if res.Results.JobsCompleted == 0 {
			t.Errorf("preset %s completed zero jobs", name)
		}
	}
}

// TestCodecRoundTripPresets: Decode(Encode(s)) == s — comparable struct
// equality — for every preset.
func TestCodecRoundTripPresets(t *testing.T) {
	for name, s := range Presets() {
		b, err := Encode(s)
		if err != nil {
			t.Fatalf("preset %s: encode: %v", name, err)
		}
		back, err := Decode(b)
		if err != nil {
			t.Fatalf("preset %s: decode: %v\n%s", name, err, b)
		}
		if back != s {
			t.Errorf("preset %s: round trip changed the scenario:\nin:  %+v\nout: %+v", name, s, back)
		}
	}
}

// TestCodecRoundTripRandom: the property holds over the full registry —
// every Random draw round-trips exactly, including uint64 seeds beyond
// 2^53 (the codec must not detour through float64).
func TestCodecRoundTripRandom(t *testing.T) {
	seeds := make([]uint64, 0, 203)
	for i := uint64(0); i < 200; i++ {
		seeds = append(seeds, i*7919+1)
	}
	seeds = append(seeds, 1<<63, 1<<64-1, 1<<53+1)
	for _, seed := range seeds {
		s := Random(seed)
		s.Seed = seed // Random already does this; keep the intent explicit
		b, err := Encode(s)
		if err != nil {
			t.Fatalf("Random(%d): encode: %v", seed, err)
		}
		back, err := Decode(b)
		if err != nil {
			t.Fatalf("Random(%d): decode: %v\n%s", seed, err, b)
		}
		if back != s {
			t.Fatalf("Random(%d): round trip changed the scenario:\nin:  %+v\nout: %+v\nfile:\n%s", seed, s, back, b)
		}
	}
}

// TestCodecRoundTripTraceFile: the new trace-file arrival kind
// round-trips like every other field.
func TestCodecRoundTripTraceFile(t *testing.T) {
	s := Presets()["fig5-delaytimer"]
	s.Arrival = ArrivalSpec{Kind: ArrTraceFile, Rho: 0.4, TraceFile: "testdata/arrivals.trace"}
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip changed the scenario:\nin:  %+v\nout: %+v", s, back)
	}
}

// TestGoldenScenarioFile pins the canonical file format byte for byte:
// Encode of the fig5 preset must match the checked-in golden exactly,
// and the golden must decode back to the preset. A deliberate format
// change regenerates with -run TestGoldenScenarioFile -update.
func TestGoldenScenarioFile(t *testing.T) {
	golden := filepath.Join("testdata", "fig5-delaytimer.json")
	s := Presets()["fig5-delaytimer"]
	got, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoded form diverged from golden %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	back, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("golden decodes to a different scenario:\n%+v\nwant\n%+v", back, s)
	}
}

// TestCommentedFixture: the hand-written JSONC fixture (comments, only
// a subset of fields) decodes and validates — the format people will
// actually write, not just the canonical dump.
func TestCommentedFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "commented.json"))
	if err != nil {
		t.Fatal(err)
	}
	s, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Servers != 4 || s.Arrival.Kind != ArrMMPP || s.Faults.ServerCrashes != 1 {
		t.Errorf("fixture decoded unexpectedly: %+v", s)
	}
	// And it re-encodes/re-decodes exactly.
	b, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("fixture round trip changed the scenario")
	}
}

// TestHyperscaleFiles: the million-host file, which no test runs, is the
// 1,024-server fixture, which every test run checks, with only the farm
// size and the job count changed.
func TestHyperscaleFiles(t *testing.T) {
	decode := func(path string) Scenario {
		data, err := os.ReadFile(filepath.Join("testdata", path))
		if err != nil {
			t.Fatal(err)
		}
		s, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return s
	}
	small, big := decode("hyperscale-1k.json"), decode(filepath.Join("scale", "hyperscale-1m.json"))
	if small.Servers != 1024 || small.MaxJobs != 5000 || big.Servers != 1_024_000 || big.MaxJobs != 200_000 {
		t.Errorf("sizes: %d servers / %d jobs and %d / %d", small.Servers, small.MaxJobs, big.Servers, big.MaxJobs)
	}
	small.Servers, small.MaxJobs = big.Servers, big.MaxJobs
	if small != big {
		t.Errorf("the files differ beyond size:\n%v\n%v", small, big)
	}
}

// TestMatrixFixture: the checked-in matrix fixture expands to the
// pinned campaign.
func TestMatrixFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "matrix.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeMatrix(data)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Expand()
	if len(got) != 16 {
		t.Fatalf("matrix expanded to %d scenarios, want 16 (2 seeds × 2 placers × 2 rho × 2 faults)", len(got))
	}
	seen := make(map[string]bool)
	for _, s := range got {
		if seen[s.String()] {
			t.Fatalf("duplicate label %s in expansion", s)
		}
		seen[s.String()] = true
	}
	// DecodeAny agrees it is a matrix.
	scenarios, isMatrix, err := DecodeAny(data)
	if err != nil || !isMatrix || len(scenarios) != 16 {
		t.Fatalf("DecodeAny: %d scenarios, matrix=%v, err=%v", len(scenarios), isMatrix, err)
	}
}

// hostileFiles are scenario files that used to pass Validate and fail
// later, each with the word its rejection must carry. Shapes: the
// 2,642,246-ary fat-tree died in run with a 2.1 TB allocation, the odd
// arity failed only at build, and BCube(3, 40) wrapped its host count to
// a negative number. Counts: the two-billion-server farm asked run for
// 1.4 TB of server records, the fault count for as many timeline events,
// the DAG for 4e18 tasks a job; a scatter of width 0 or a 0x0 DAG was
// refused only when Config built the factory. Arrivals and horizons: an
// MMPP burst ratio below 1 failed only at run, a negative maxJobs,
// durationSec or traceSec ran as if unset, a synthetic trace of 1e12 s
// (wiki) or 1e9 s (nlanr) crashed run sizing its arrivals, and a sparse
// 1e12 s wiki trace (3.2e6 arrivals) spun run through 1e12 one-second
// buckets, an MMPP at ρ 1e-13 spun run in its modulating chain (about
// 2e9 state flips an arrival) and an NLANR trace at ρ 5e-324 panicked
// run rescaling it by an infinite factor.
// Payloads and rates: a negative edgeBytes panicked in the network at
// run, as did a packet-mode edge of 1e18 bytes (6.7e14 packets, over
// the network's per-transfer cap); a flow-mode edge of 1e17 bytes
// wrapped the delivered-bytes counter negative; a 1x200,000 flattened
// butterfly validated but would build ~2e10 links; and a negative rateBps or placer tauSec ran as the default under
// its own label. Seconds past the clock's range (about 9.22e9 s) became
// negative times: a 1e10 s delay timer overflowed the stack formatting
// the engine's schedule-in-the-past panic, a 1e10 s crash downtime hit
// that panic, a 1e12 s duration hung run, and a 1e10 s placer timer or
// server MTTF ran with a negative time in its place.
var hostileFiles = []struct{ name, data, want string }{
	{"fattree-2.1TB", `{"topology": {"kind": "fattree", "a": 2642246}, "servers": 1, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "topology:"},
	{"fattree-odd-arity", `{"topology": {"kind": "fattree", "a": 3}, "servers": 1, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "topology:"},
	{"bcube-wraps-int", `{"topology": {"kind": "bcube", "a": 3, "b": 40}, "servers": 1, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "topology:"},
	{"farm-1.4TB", `{"topology": {"kind": "none"}, "servers": 2000000000, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "servers exceed the bound"},
	{"fault-count", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "faults": {"serverCrashes": 2000000000, "serverDownSec": 0.1}}`, "exceeds the bound"},
	{"repair-crews", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "faults": {"serverMTTFSec": 1, "serverMTTRSec": 0.1, "repairCrews": 2000000000}}`, "exceeds the bound"},
	{"dag-4e18-tasks", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "factory": {"kind": "dag", "width": 2000000000, "layers": 2000000000}}`, "the bound of"},
	{"scatter-width-0", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "factory": {"kind": "scatter", "width": 0}}`, "width 0"},
	{"dag-0x0", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "factory": {"kind": "dag"}}`, "shape 0x0"},
	{"mmpp-burst-0.5", `{"servers": 4, "arrival": {"kind": "mmpp", "rho": 0.3, "burstRatio": 0.5}, "maxJobs": 10}`, "burst ratio 0.5 < 1"},
	{"mmpp-rho-1e-13", `{"servers": 8, "arrival": {"kind": "mmpp", "rho": 1e-13, "burstRatio": 4}, "maxJobs": 200}`, "modulating cycles"},
	{"nlanr-rho-5e-324", `{"servers": 8, "arrival": {"kind": "nlanr", "rho": 5e-324}, "maxJobs": 200}`, "overflows"},
	{"maxjobs-negative", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": -3, "durationSec": 0.5}`, "negative horizon"},
	{"duration-negative", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "durationSec": -2}`, "negative horizon"},
	{"tracesec-negative", `{"servers": 4, "arrival": {"kind": "wiki", "rho": 0.3, "traceSec": -4}, "maxJobs": 10}`, "negative trace length"},
	{"tracesec-wiki-1e12", `{"servers": 4, "arrival": {"kind": "wiki", "rho": 0.3, "traceSec": 1e12}, "maxJobs": 10}`, "synthesizes"},
	{"tracesec-nlanr-1e9", `{"servers": 4, "arrival": {"kind": "nlanr", "rho": 0.3, "traceSec": 1e9}, "maxJobs": 10}`, "synthesizes"},
	{"tracesec-wiki-sparse", `{"servers": 4, "arrival": {"kind": "wiki", "rho": 1e-9, "traceSec": 1e12}, "maxJobs": 10}`, "synthesizes"},
	{"edgebytes-packet-cap", `{"topology": {"kind": "fattree", "a": 4}, "comm": "packet", "servers": 8, "arrival": {"kind": "poisson", "rho": 0.5}, "maxJobs": 200, "factory": {"kind": "scatter", "width": 2, "edgeBytes": 1000000000000000000}}`, "over the bound of 1073741824"},
	{"edgebytes-flow-cap", `{"topology": {"kind": "fattree", "a": 4}, "comm": "flow", "servers": 8, "arrival": {"kind": "poisson", "rho": 0.5}, "maxJobs": 200, "factory": {"kind": "scatter", "width": 2, "edgeBytes": 100000000000000000}}`, "over the bound of 1073741824"},
	{"flatbfly-2e10-links", `{"topology": {"kind": "flatbfly", "a": 1, "b": 200000, "c": 1}, "servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "links"},
	{"edgebytes-negative", `{"topology": {"kind": "fattree", "a": 4}, "comm": "flow", "servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "factory": {"kind": "twotier", "edgeBytes": -1000}}`, "negative edge payload"},
	{"ratebps-negative", `{"topology": {"kind": "fattree", "a": 4, "rateBps": -1e9}, "servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "negative link rate"},
	{"tausec-negative", `{"servers": 4, "placer": {"kind": "adaptive", "tauSec": -0.5}, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "negative placer timer"},
	{"delaytimer-1e10", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "delayTimerSec": 1e10}`, "beyond the clock's range"},
	{"downsec-1e10", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "faults": {"serverCrashes": 2, "serverDownSec": 1e10}}`, "invalid duration"},
	{"duration-1e12", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 0, "durationSec": 1e12}`, "beyond the clock's range"},
	{"tausec-1e10", `{"servers": 4, "placer": {"kind": "adaptive", "tauSec": 1e10}, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "beyond the clock's range"},
	{"mttf-1e10", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "faults": {"serverMTTFSec": 1e10, "serverMTTRSec": 0.1}}`, "invalid duration"},
}

// TestDecodeRejects pins the strictness contract: unknown fields, bad
// enum names, trailing garbage, illegal compositions, shapes and counts
// a build would refuse or could not afford, unterminated comments and
// non-JSON all error, never panic, never pass.
func TestDecodeRejects(t *testing.T) {
	valid, err := Encode(Presets()["fig5-delaytimer"])
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data string
		want string // in the error, when set
	}{
		{"unknown-top-field", `{"seed": 1, "sevrers": 4}`, ""},
		// A file in a retired schema fails loudly, naming the field,
		// rather than running with its settings ignored.
		{"old-schema", `{"workload": {"arrivals": "poisson", "rho": 0.3, "serviceSec": 0.005}, "delayTimerSec": 1}`, `unknown field "workload"`},
		{"unknown-nested-field", `{"seed": 1, "arrival": {"kind": "poisson", "rh": 0.3}}`, ""},
		{"bad-enum", `{"servers": 4, "arrival": {"kind": "possion", "rho": 0.3}, "maxJobs": 10}`, "want one of [mmpp nlanr poisson trace-file wiki]"},
		{"bad-queue", `{"servers": 4, "queue": "per-cores", "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "want one of [per-core unified]"},
		{"bad-comm", `{"servers": 4, "comm": "fluid", "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "want one of [flow none packet]"},
		{"bad-net-model", `{"servers": 4, "netModel": "flow", "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, "want one of [fluid packet]"},
		{"bad-orphans", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "faults": {"orphans": "discard"}}`, "want one of [drop requeue]"},
		{"trailing-garbage", strings.TrimRight(string(valid), "\n") + " {}", ""},
		{"invalid-composition", `{"servers": 0, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`, ""},
		{"unbounded-horizon", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}}`, ""},
		{"tracefile-without-path", `{"servers": 4, "arrival": {"kind": "trace-file", "rho": 0.3}}`, ""},
		{"path-without-tracefile-kind", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3, "traceFile": "x"}, "maxJobs": 10}`, ""},
		{"unterminated-comment", `/* {"servers": 4}`, ""},
		{"not-json", `servers: 4`, ""},
		{"empty", ``, ""},
		{"negative-fault-count", `{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10, "faults": {"serverCrashes": -1}}`, ""},
	}
	for _, tc := range cases {
		if _, err := Decode([]byte(tc.data)); err == nil {
			t.Errorf("%s: Decode accepted %q", tc.name, tc.data)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected, but not with %q: %v", tc.name, tc.want, err)
		}
	}
	for _, tc := range hostileFiles {
		if _, err := Decode([]byte(tc.data)); err == nil {
			t.Errorf("%s: Decode accepted %q", tc.name, tc.data)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: rejected, but not with %q: %v", tc.name, tc.want, err)
		}
		matrix := `{"base": ` + tc.data + `, "axes": {"seeds": [1, 2]}}`
		if _, err := DecodeMatrix([]byte(matrix)); err == nil {
			t.Errorf("%s: DecodeMatrix accepted it as a base", tc.name)
		}
	}
	if _, err := DecodeMatrix([]byte(`{"base": {}, "axes": {}}`)); err == nil {
		t.Error("DecodeMatrix accepted a zero-expansion matrix")
	}
}

// TestEdgePayloadBoundAtMTU holds Validate's edge-payload bound to the
// MTU network.TransferPackets cuts a transfer into: the largest payload
// whose packet count meets network.MaxPacketsPerTransfer validates, one
// byte more is rejected. Neither is run.
func TestEdgePayloadBoundAtMTU(t *testing.T) {
	s, err := Decode([]byte(`{"topology": {"kind": "fattree", "a": 4}, "comm": "packet", "servers": 8, "arrival": {"kind": "poisson", "rho": 0.5}, "maxJobs": 200, "factory": {"kind": "scatter", "width": 2, "edgeBytes": 1024}}`))
	if err != nil {
		t.Fatal(err)
	}
	top := network.MaxPacketsPerTransfer * network.MTUBytes
	if top != 1_610_612_736_000 {
		t.Fatalf("bound is %d bytes, want 1,610,612,736,000 (2^30 packets of 1,500 bytes)", top)
	}
	s.Factory.EdgeBytes = top
	if err := s.Validate(); err != nil {
		t.Errorf("edge payload of %d bytes rejected: %v", top, err)
	}
	s.Factory.EdgeBytes = top + 1
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "over the bound of 1073741824") {
		t.Errorf("edge payload of %d bytes: got %v, want the packet bound", top+1, err)
	}
}

// TestClockEndFilesRunClean: files that validate but reach past the
// clock's end (~9.22e9 s, where the nanosecond count leaves int64) run
// clean with the checker on. The first three panicked the engine with a
// wrapped time (an arrival gap, a recovery after a long downtime, an
// outage-log start); the last failed Build on a fault horizon derived
// from maxJobs / rate that the file never set.
func TestClockEndFilesRunClean(t *testing.T) {
	log := filepath.Join(t.TempDir(), "big.log")
	if err := os.WriteFile(log, []byte("1e10 1 server 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*Scenario)
	}{
		{"arrival-past-end", func(s *Scenario) { s.Arrival.Rho, s.MaxJobs = 1e-13, 5 }},
		{"recovery-past-end", func(s *Scenario) {
			s.Faults = fault.Spec{ServerCrashes: 3, ServerDownSec: 9e9, HorizonSec: 9e9}
		}},
		{"outage-log-past-end", func(s *Scenario) { s.Faults = fault.Spec{TraceFile: log, HorizonSec: 10} }},
		{"derived-horizon-past-end", func(s *Scenario) {
			s.Arrival.Rho, s.MaxJobs = 1e-14, 5
			s.Faults = fault.Spec{ServerCrashes: 1}
		}},
	} {
		s := Presets()["fig5-delaytimer"]
		tc.edit(&s)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := s.Run()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: %v", tc.name, res.Violations)
		}
		r := res.Results
		if r.JobsGenerated == 0 || r.JobsGenerated != r.JobsCompleted+r.JobsLost {
			t.Errorf("%s: %d generated, %d completed, %d lost", tc.name, r.JobsGenerated, r.JobsCompleted, r.JobsLost)
		}
	}
}

// TestStripComments pins the comment scanner against the corners that
// bite: comment markers inside strings, escaped quotes, both comment
// styles.
func TestStripComments(t *testing.T) {
	cases := []struct{ in, want string }{
		{`{"a": 1} // tail`, `{"a": 1} `},
		{"// lead\n{\"a\": 1}", "\n{\"a\": 1}"},
		{`{"a": "http://x"}`, `{"a": "http://x"}`},
		{`{"a": "q\"//not"}`, `{"a": "q\"//not"}`},
		{"{/* c */\"a\": 1}", "{       \"a\": 1}"},
		{"{/* a\nb */\"a\": 1}", "{    \n    \"a\": 1}"},
	}
	for _, tc := range cases {
		got, err := StripComments([]byte(tc.in))
		if err != nil {
			t.Errorf("StripComments(%q): %v", tc.in, err)
			continue
		}
		if string(got) != tc.want {
			t.Errorf("StripComments(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	if _, err := StripComments([]byte(`/* open`)); err == nil {
		t.Error("unterminated block comment accepted")
	}
}

// TestScenarioLabelInjective is the regression test for the label
// collision bug: ArrivalSpec used to format Rho with %.2g (0.123 and
// 0.1234 collided) and FactorySpec dropped Service/EdgeBytes/Width for
// some kinds, so two distinct imported scenarios could share the run
// label the runner's rep-seeding splits on. Labels must now be unique
// across the short matrix, the fault matrix, the demo matrix and 200
// Random draws — and for the historically colliding pairs explicitly.
func TestScenarioLabelInjective(t *testing.T) {
	byLabel := make(map[string]Scenario)
	check := func(s Scenario) {
		label := s.String()
		if prev, ok := byLabel[label]; ok && prev != s {
			t.Fatalf("label %q names two distinct scenarios:\n%+v\n%+v", label, prev, s)
		}
		byLabel[label] = s
	}
	for _, s := range shortAxes().Expand(Scenario{Seed: 41, Servers: 8, DelayTimerSec: 0.1}) {
		check(s)
	}
	for _, s := range faultAxes().Expand(Scenario{Seed: 73, Servers: 8, DelayTimerSec: 0.1}) {
		check(s)
	}
	for _, s := range DemoMatrix().Expand() {
		check(s)
	}
	for i := 0; i < 200; i++ {
		check(Random(uint64(5000 + i)))
	}

	// The exact historical collisions, now distinct.
	base := Scenario{Seed: 1, Servers: 4, MaxJobs: 10}
	a, b := base, base
	a.Arrival = ArrivalSpec{Kind: ArrPoisson, Rho: 0.123}
	b.Arrival = ArrivalSpec{Kind: ArrPoisson, Rho: 0.1234}
	if a.String() == b.String() {
		t.Errorf("rho 0.123 vs 0.1234 still collide: %s", a)
	}
	a, b = base, base
	a.Arrival, b.Arrival = ArrivalSpec{Kind: ArrPoisson, Rho: 0.3}, ArrivalSpec{Kind: ArrPoisson, Rho: 0.3}
	a.Factory = FactorySpec{Kind: FacSingle, Service: SvcWebSearch}
	b.Factory = FactorySpec{Kind: FacSingle, Service: SvcWikipedia}
	if a.String() == b.String() {
		t.Errorf("factories differing only in service still collide: %s", a)
	}
	a.Factory = FactorySpec{Kind: FacScatterGather, Width: 2, EdgeBytes: 1024}
	b.Factory = FactorySpec{Kind: FacScatterGather, Width: 2, EdgeBytes: 2048}
	if a.String() == b.String() {
		t.Errorf("factories differing only in edge bytes still collide: %s", a)
	}
	// Fault specs differing only in draw horizon.
	a.Factory, b.Factory = FactorySpec{}, FactorySpec{}
	a.Faults = fault.Spec{ServerCrashes: 1, ServerDownSec: 0.1, HorizonSec: 1, Orphans: sched.OrphanRequeue}
	b.Faults = fault.Spec{ServerCrashes: 1, ServerDownSec: 0.1, HorizonSec: 2, Orphans: sched.OrphanRequeue}
	if a.String() == b.String() {
		t.Errorf("fault specs differing only in horizon still collide: %s", a)
	}
}

// FuzzDecode: arbitrary input never panics the decoder — it errors or
// yields a Validate-passing scenario whose Encode→Decode round trip is
// exact. DecodeMatrix and DecodeAny ride along under the same contract.
func FuzzDecode(f *testing.F) {
	if b, err := Encode(Presets()["fig5-delaytimer"]); err == nil {
		f.Add(string(b))
	}
	if b, err := EncodeMatrix(DemoMatrix()); err == nil {
		f.Add(string(b))
	}
	f.Add(`{}`)
	f.Add(`{"servers": 4, "arrival": {"kind": "poisson", "rho": 0.3}, "maxJobs": 10}`)
	f.Add("// comment\n{\"servers\": 1}")
	f.Add(`{"base": {}, "axes": {"servers": [1, 2]}}`)
	f.Add(`{"seed": 18446744073709551615}`)
	f.Add(`{"arrival": {"kind": "trace-file", "traceFile": "/dev/null"}}`)
	f.Add(`[1, 2, 3]`)
	f.Add(`"just a string"`)
	f.Add(`{"faults": {"serverCrashes": 9999999}}`)
	for _, tc := range hostileFiles {
		f.Add(tc.data)
	}
	f.Fuzz(func(t *testing.T, input string) {
		data := []byte(input)
		s, err := Decode(data)
		if err == nil {
			if verr := s.Validate(); verr != nil {
				t.Fatalf("Decode returned an invalid scenario: %v", verr)
			}
			b, err := Encode(s)
			if err != nil {
				t.Fatalf("decoded scenario does not re-encode: %v", err)
			}
			back, err := Decode(b)
			if err != nil {
				t.Fatalf("re-encoded scenario does not decode: %v\n%s", err, b)
			}
			if back != s {
				t.Fatalf("round trip changed the scenario:\nin:  %+v\nout: %+v", s, back)
			}
		}
		// Matrix and sniffing paths must be panic-free too.
		if m, err := DecodeMatrix(data); err == nil {
			if len(m.Expand()) == 0 {
				t.Fatal("DecodeMatrix accepted a zero-expansion matrix")
			}
		}
		_, _, _ = DecodeAny(data)
	})
}
