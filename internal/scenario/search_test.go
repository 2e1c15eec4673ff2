package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"holdcsim/internal/modelcov"
)

func TestBoundWork(t *testing.T) {
	cases := []struct {
		name    string
		maxJobs int64
		bound   int64
		want    int64
	}{
		{"unbounded-gets-capped", 0, 800, 800},
		{"over-cap-gets-clamped", 5000, 800, 800},
		{"under-cap-untouched", 120, 800, 120},
		{"at-cap-untouched", 800, 800, 800},
		{"non-positive-bound-noop", 5000, 0, 5000},
		{"negative-bound-noop", 0, -1, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Scenario{MaxJobs: c.maxJobs}
			BoundWork(&s, c.bound)
			if s.MaxJobs != c.want {
				t.Fatalf("BoundWork(%d, %d): MaxJobs = %d, want %d",
					c.maxJobs, c.bound, s.MaxJobs, c.want)
			}
		})
	}
}

// variationAllowlist names the Scenario leaf fields the generator
// population is excused from varying, with the reason. Everything else
// must take at least two distinct values across Random, mutate, and the
// presets — this is the regression net for generator blind spots: add a
// Scenario field without teaching Random or mutate about it and this
// test fails until you either vary it or justify an entry here.
var variationAllowlist = map[string]string{
	"Arrival.TraceFile": "a random draw cannot invent a recorded trace file on disk",
	"Faults.TraceFile":  "a random draw cannot invent a recorded outage log on disk",
	"CheckStationary":   "stationarity checks on arbitrary scenarios would turn fuzz noise into CI failures",
}

// leafValues walks v and records every leaf field's value under its
// dotted path (e.g. "Arrival.Rho").
func leafValues(prefix string, v reflect.Value, into map[string]map[string]bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			path := name
			if prefix != "" {
				path = prefix + "." + name
			}
			leafValues(path, v.Field(i), into)
		}
	default:
		set := into[prefix]
		if set == nil {
			set = make(map[string]bool)
			into[prefix] = set
		}
		set[fmt.Sprintf("%v", v.Interface())] = true
	}
}

func TestGeneratorVariesEveryScenarioField(t *testing.T) {
	seen := make(map[string]map[string]bool)
	for seed := uint64(0); seed < 400; seed++ {
		s := Random(seed)
		leafValues("", reflect.ValueOf(s), seen)
		// Mutation words with long runs of both small and large residues
		// so every peel branch fires across the sweep.
		for _, mut := range []uint64{0, seed * 2654435761, ^uint64(0) - seed,
			seed*7919 + 1, 1 << (seed % 64)} {
			m := Random(seed)
			mutate(&m, mut)
			leafValues("", reflect.ValueOf(m), seen)
		}
	}
	for _, s := range Presets() {
		leafValues("", reflect.ValueOf(s), seen)
	}

	var missed []string
	for path, values := range seen {
		if len(values) < 2 && variationAllowlist[path] == "" {
			missed = append(missed, path)
		}
	}
	if len(missed) > 0 {
		t.Fatalf("generator population never varies %v — teach Random or mutate "+
			"about these fields, or add an allowlist entry with a reason", missed)
	}
	for path := range variationAllowlist {
		if seen[path] == nil {
			t.Fatalf("allowlist entry %q does not match any Scenario field — stale?", path)
		}
	}
}

// TestSearchFindingsStayFixed replays the inputs a search campaign has
// reported as failures, at the work bound it ran them under.
func TestSearchFindingsStayFixed(t *testing.T) {
	for _, c := range []struct {
		seed, mut uint64
		maxJobs   int64
		bug       string
	}{
		{542164409078028614, 8550263226407246166, 60,
			"a scope kill failed its switches before recording their owner, so a transfer the kill aborted reached the deep scan with the switch down and unowned"},
	} {
		s := Random(c.seed)
		mutate(&s, c.mut)
		BoundWork(&s, c.maxJobs)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed=%d mut=%d no longer validates: %v", c.seed, c.mut, err)
		}
		if _, err := s.Run(); err != nil {
			t.Errorf("seed=%d mut=%d (%s): %v", c.seed, c.mut, c.bug, err)
		}
	}
}

// canaries is DESIGN.md Sec. 12.2's set of features no scenario reaches,
// by name.
func canaries() map[string]bool {
	set := map[string]bool{"net/packet-loopback": true, "place/placer-fallback": true}
	states := []string{"Active", "Wake-up", "Idle", "PkgC6", "SysSleep", "Down"}
	for _, a := range states {
		for _, b := range states {
			if a == b || (a == "Down" && b != "Idle") {
				set["srv/"+a+"->"+b] = true
			}
		}
	}
	for _, tr := range []string{"Active->PkgC6", "Wake-up->PkgC6", "Active->SysSleep", "Idle->SysSleep",
		"PkgC6->Active", "PkgC6->Idle", "PkgC6->SysSleep", "SysSleep->Active", "SysSleep->Idle",
		"SysSleep->PkgC6"} {
		set["srv/"+tr] = true
	}
	return set
}

// TestCanariesStayDark replays the committed corpus and holds Sec. 12.2's
// contract in both directions: every feature the corpus never reaches is
// a canary, and no canary is reached.
func TestCanariesStayDark(t *testing.T) {
	corpus, err := ReadCorpusDir("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Search(SearchOptions{Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures {
		t.Errorf("corpus entry seed=%d mut=%d failed: %s", f.Seed, f.Mut, f.Err)
	}
	dark := canaries()
	for _, f := range res.Cover.NeverHit() {
		if !dark[modelcov.Name(f)] {
			t.Errorf("%s is never hit but is not a canary", modelcov.Name(f))
		}
		delete(dark, modelcov.Name(f))
	}
	for name := range dark {
		t.Errorf("canary %s was hit", name)
	}
	if got := res.Cover.Covered(); got != 76 {
		t.Errorf("corpus replay covers %d/%d features, want 76", got, modelcov.NumFeatures)
	}
}

// TestSearchWorkerIndependent pins the determinism contract: the same
// options, seed corpus included, explore the same candidates and produce
// the same coverage and corpus at any worker count. The corpus replay is
// not counted against Execs and heads the result corpus.
func TestSearchWorkerIndependent(t *testing.T) {
	seedCorpus := []CorpusEntry{{Seed: 3, Mut: 0, Gain: 1}, {Seed: 17, Mut: 0x7001, Gain: 2}}
	o := SearchOptions{Seed: 11, Execs: 16, MaxJobs: 40, Corpus: seedCorpus}
	var runs [2]SearchResult
	for i, workers := range []int{1, 4} {
		o.Workers = workers
		res, err := Search(o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Execs != o.Execs {
			t.Fatalf("%d workers: Execs = %d, want %d (replay is not counted)", workers, res.Execs, o.Execs)
		}
		if !reflect.DeepEqual(res.Corpus[:len(seedCorpus)], seedCorpus) {
			t.Fatalf("%d workers: result corpus does not start with the seed corpus: %v", workers, res.Corpus)
		}
		admitted := res.Corpus[len(seedCorpus):]
		if len(admitted) == 0 {
			t.Fatalf("%d workers: search admitted no corpus entries", workers)
		}
		for _, e := range admitted {
			if e.Gain <= 0 {
				t.Fatalf("corpus entry %d/%d admitted with gain %d", e.Seed, e.Mut, e.Gain)
			}
		}
		runs[i] = res
	}
	a, b := runs[0], runs[1]
	if *a.Cover != *b.Cover {
		t.Fatalf("coverage depends on worker count: %d vs %d",
			a.Cover.Covered(), b.Cover.Covered())
	}
	if !reflect.DeepEqual(a.Corpus, b.Corpus) {
		t.Fatalf("corpus depends on worker count:\n1 worker: %v\n4 workers: %v",
			a.Corpus, b.Corpus)
	}
}

// TestRunCoverByteIdentical pins the observation-only contract: running
// with a coverage map attached changes nothing about the simulation —
// the full Result is identical to a bare run.
func TestRunCoverByteIdentical(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		s := Random(seed)
		BoundWork(&s, 80)
		if s.Validate() != nil {
			continue
		}
		bare, err := s.Run()
		if err != nil {
			t.Fatalf("seed %d bare: %v", seed, err)
		}
		m := &modelcov.Map{}
		covered, err := s.RunCover(m)
		if err != nil {
			t.Fatalf("seed %d covered: %v", seed, err)
		}
		if !reflect.DeepEqual(bare, covered) {
			t.Fatalf("seed %d: result differs with coverage attached:\nbare:    %+v\ncovered: %+v",
				seed, bare, covered)
		}
		if m.Covered() == 0 {
			t.Fatalf("seed %d: covered run hit no features", seed)
		}
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := []CorpusEntry{{Seed: 1, Mut: 2, Gain: 3}, {Seed: 18446744073709551615, Mut: 0, Gain: 1}}
	path := filepath.Join(dir, "a.txt")
	if err := WriteCorpus(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: wrote %v, read %v", in, out)
	}

	// Dir read concatenates files in name order; a missing dir is empty.
	if err := WriteCorpus(filepath.Join(dir, "b.txt"), []CorpusEntry{{Seed: 9}}); err != nil {
		t.Fatal(err)
	}
	all, err := ReadCorpusDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[2].Seed != 9 {
		t.Fatalf("dir read: %v", all)
	}
	empty, err := ReadCorpusDir(filepath.Join(dir, "nope"))
	if err != nil || len(empty) != 0 {
		t.Fatalf("missing dir: %v, %v", empty, err)
	}

	// A line is two or three unsigned fields and nothing after them.
	for _, line := range []string{"1", "1 2x", "1 2 3 junk", "-1 2", "1 2 -3", "1 2 18446744073709551616"} {
		bad := filepath.Join(dir, "bad.txt")
		if err := os.WriteFile(bad, []byte(line+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := ReadCorpus(bad); err == nil {
			t.Errorf("ReadCorpus accepted %q as %v", line, got)
		}
	}
}

func TestMinimizeCorpus(t *testing.T) {
	// A duplicated entry cannot contribute new coverage twice.
	entries := []CorpusEntry{{Seed: 3, Mut: 0}, {Seed: 3, Mut: 0}}
	min := MinimizeCorpus(entries, 40)
	if len(min) != 1 {
		t.Fatalf("minimize kept %d of a duplicated pair, want 1: %v", len(min), min)
	}
	if min[0].Gain <= 0 {
		t.Fatalf("survivor has non-positive gain: %v", min[0])
	}
}

// BenchmarkRunBare / BenchmarkRunCovered measure the coverage hooks'
// overhead on a mid-size scenario; the acceptance bound is <= 2%.
func BenchmarkRunBare(b *testing.B) {
	s := benchScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCovered(b *testing.B) {
	s := benchScenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunCover(&modelcov.Map{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchScenario() Scenario {
	s := Random(12)
	BoundWork(&s, 400)
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}
