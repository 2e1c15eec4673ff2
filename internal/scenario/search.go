package scenario

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"holdcsim/internal/modelcov"
	"holdcsim/internal/network"
	"holdcsim/internal/rng"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
)

// This file is the model-state coverage search harness: Search replays a
// corpus of (seed, mut) inputs, runs fresh draws under internal/modelcov,
// and keeps every input whose run reaches a model state — a deep sleep
// state, a full egress ring, a cascade — no earlier input reached as
// hard. The same (seed, mut) encoding is shared with FuzzScenario, so a
// corpus found here seeds the native fuzzer directly.

// searchMaxJobs is the per-execution work bound (BoundWork) of a search,
// a corpus minimization and a FuzzScenario exec when none is given.
const searchMaxJobs = 800

// BoundWork clamps a scenario's work bound for a search or fuzz
// executor: whatever horizon the generator or a mutation composed,
// generation is capped at maxJobs so a single execution can never run
// unbounded (trace- or duration-only horizons on big farms otherwise
// derive 10^5+ jobs). A maxJobs <= 0 leaves the scenario untouched.
func BoundWork(s *Scenario, maxJobs int64) {
	if maxJobs <= 0 {
		return
	}
	if s.MaxJobs == 0 || s.MaxJobs > maxJobs {
		s.MaxJobs = maxJobs
	}
}

// mutate perturbs a drawn scenario with fuzz-controlled values, bounded
// so single executions stay fast (small farms, short horizons, bounded
// edge bytes) while still reaching saturation and degenerate corners.
//
// The mutation word is 16 independent 4-bit fields, one per
// perturbation axis; nibble value 0 always means "leave the axis
// alone". Independence is what makes the encoding mutable: rewriting
// one nibble perturbs exactly one axis, so go-fuzz's byte-level
// mutations of the word translate to small scenario edits instead of
// whole-scenario rerolls. Nibble positions are load-bearing for recorded
// (seed, mut) corpus pairs: never renumber an axis; new axes must
// subdivide an existing nibble's value space or widen the word.
func mutate(s *Scenario, mut uint64) {
	nib := func(i uint) uint64 { return (mut >> (4 * i)) & 0xf }

	if v := nib(0); v != 0 {
		// Up to 1.59: overload scenarios (1.0–1.48) run, and the top of
		// the range crosses Validate's 1.5 cap to exercise rejection.
		s.Arrival.Rho = 0.05 + float64(v-1)*0.11
	}
	if v := nib(1); v != 0 {
		s.Arrival.BurstRatio = 1 + float64(v-1)*3
	}
	switch v := nib(2); {
	case v == 0:
	case v < 8:
		s.MaxJobs, s.DurationSec, s.DVFS = int64(v)*16, 0, false
	default:
		s.MaxJobs, s.DurationSec = 0, 0.05+float64(v-8)*0.25
	}
	switch v := nib(3); {
	case v == 0:
	case v < 8:
		s.Servers = int(v)
	default:
		s.Factory.Width = 1 + int(v-8)%4
		s.Factory.Layers = 1 + int(v-8)/4
	}
	if v := nib(4); v != 0 && s.Comm != 0 {
		s.Factory.EdgeBytes = int64(v-1) * 4 << 10
	}
	if v := nib(5); v != 0 {
		s.DelayTimerSec = [...]float64{-1, 0, 0.01, 0.3}[(v-1)%4]
	}
	switch v := nib(6); {
	case v == 0:
	case v < 15:
		s.NetModel = network.ModelPacket
	default:
		// Fluid on packet comm is the legal pairing; fluid elsewhere
		// exercises Validate's model/comm rejection. Pinned to the top
		// value so uniform words rarely land in the rejection corner.
		s.NetModel = network.ModelFluid
	}

	// Nibble 7 picks a fault family; nibbles 8–10 parameterize it.
	// Unused parameter nibbles in a family are deliberately dead so a
	// single-nibble rewrite of nibble 7 re-interprets 8–10 in the new
	// family without cross-talk.
	p1, p2, p3 := nib(8), nib(9), nib(10)
	switch v := nib(7); {
	case v == 0:
	case v < 6: // point faults
		s.Faults.ServerCrashes = int(p1 % 4)
		s.Faults.ServerDownSec = 0.02 + float64(p1)*0.03
		s.Faults.Orphans = sched.OrphanPolicy(p3 % 2)
		if s.Topology.Kind != TopoNone {
			s.Faults.LinkFlaps = int(p2 % 3)
			s.Faults.LinkDownSec = 0.02 + float64(p2)*0.02
			s.Faults.SwitchKills = int(p2 % 2)
			s.Faults.SwitchDownSec = 0.03 + float64(p2)*0.03
		}
	case v < 11: // correlated blast-radius faults
		s.Faults.RackKills = int(p1 % 3)
		s.Faults.RackDownSec = 0.02 + float64(p1)*0.03
		s.Faults.PodKills = int(p2 % 2)
		s.Faults.PodDownSec = 0.02 + float64(p2)*0.03
		if s.Topology.Kind != TopoNone {
			s.Faults.SubtreeKills = int(p2 % 2)
			s.Faults.SubtreeDownSec = 0.02 + float64(p2)*0.03
		}
		s.Faults.Orphans = sched.OrphanPolicy(p3 % 2)
	default: // renewal processes + cascades
		s.Faults.ServerMTTFSec = 0.3 + float64(p1)*0.15
		s.Faults.ServerMTTRSec = 0.02 + float64(p1)*0.03
		if p2%2 == 1 {
			s.Faults.WeibullShape = 0.6 + float64(p2)*0.12
		}
		s.Faults.RepairCrews = int(p2 % 3)
		s.Faults.CascadeP = float64(p3%5) * 0.25
		s.Faults.CascadeDelaySec = 0.01 + float64(p3)*0.01
		s.Faults.CascadeDepth = int(p3 % 4)
	}

	if v := nib(11); v != 0 {
		s.Topology.RateBps = [...]float64{0, 1e6, 1e8, 1e9}[(v-1)%4]
	}
	if v := nib(12); v != 0 {
		s.SwitchSleepSec = [...]float64{-1, 0.05, 0.2, 1}[(v-1)%4]
	}
	if v := nib(13); v == 15 {
		// Clip windows compose only with recorded-trace arrivals
		// (ArrTraceFile), which Random never draws — on every other
		// kind this exercises Validate's clip rejection. Pinned to the
		// top value so uniform words rarely land in the corner.
		s.Arrival.ClipFromSec = 0.5
		s.Arrival.ClipToSec = 1.5
	}
	if v := nib(14); v != 0 {
		s.Faults.SwitchMTTFSec = 0.4 + float64(v)*0.2
		s.Faults.SwitchMTTRSec = 0.03 + float64(v)*0.03
	}
	if v := nib(15); v != 0 {
		s.Faults.HorizonSec = 0.2 + float64(v)*0.12
	}
}

// CorpusEntry is one retained search input: Random(Seed) perturbed by
// mutate(·, Mut). Gain records how many coverage features the entry
// contributed when it was admitted (diagnostic only; not re-derived on
// load).
type CorpusEntry struct {
	Seed uint64
	Mut  uint64
	Gain int
}

// SearchFailure records an execution the search could not complete — a
// run error or invariant violation. These are the search's findings:
// each is a reproducible (seed, mut) pair for FuzzScenario.
type SearchFailure struct {
	Seed uint64
	Mut  uint64
	Err  string
}

// SearchOptions configures Search.
type SearchOptions struct {
	// Seed drives candidate generation. The same (Seed, Execs, Corpus)
	// always explores the same candidates, at any worker count.
	Seed uint64
	// Execs is the number of fresh candidate executions; the corpus
	// replay does not count against it.
	Execs int
	// Workers is the execution pool size; <= 0 means GOMAXPROCS.
	Workers int
	// MaxJobs is the per-execution work bound (BoundWork); <= 0 means
	// searchMaxJobs, the FuzzScenario clamp.
	MaxJobs int64
	// Corpus optionally seeds the search with prior findings.
	Corpus []CorpusEntry
}

func (o *SearchOptions) defaults() {
	if o.MaxJobs <= 0 {
		o.MaxJobs = searchMaxJobs
	}
}

// SearchResult is a search campaign's outcome.
type SearchResult struct {
	// Cover is the merged global coverage map.
	Cover *modelcov.Map
	// Corpus holds the seed corpus plus every admitted entry, in
	// admission order.
	Corpus []CorpusEntry
	// Execs counts candidate executions attempted; Ran counts those
	// that validated and ran to completion.
	Execs int
	Ran   int
	// Failures lists executions that ran but failed (run errors,
	// invariant violations) — the search's bug findings.
	Failures []SearchFailure
}

// searchCandidate is one planned execution.
type searchCandidate struct {
	seed, mut uint64
}

// execBatch runs candidates through the campaign runner and folds their
// coverage into the result in submission order, so the outcome is
// independent of the worker count. With admit set, a candidate whose
// merge gains a bucket class joins the corpus.
func execBatch(o SearchOptions, cands []searchCandidate, global *modelcov.Map,
	res *SearchResult, admit bool) error {
	type outcome struct {
		cover *modelcov.Map
		fail  string
	}
	runs := make([]runner.Run[outcome], len(cands))
	for i, c := range cands {
		c := c
		runs[i] = runner.Run[outcome]{
			Key: fmt.Sprintf("cov/%x/%x", c.seed, c.mut),
			Do: func(uint64) (outcome, error) {
				s := Random(c.seed)
				mutate(&s, c.mut)
				BoundWork(&s, o.MaxJobs)
				if s.Validate() != nil {
					// An invalid mutation rejected cleanly is the
					// contract, not a finding; it contributes nothing.
					return outcome{}, nil
				}
				local := &modelcov.Map{}
				r, err := s.RunCover(local)
				if err != nil {
					return outcome{cover: local, fail: err.Error()}, nil
				}
				if len(r.Violations) > 0 {
					return outcome{cover: local,
						fail: fmt.Sprintf("invariant violations: %v", r.Violations)}, nil
				}
				return outcome{cover: local}, nil
			},
		}
	}
	outs, err := runner.Map(runner.Options{Workers: o.Workers}, o.Seed, runs)
	if err != nil {
		return err
	}
	for i, out := range outs {
		res.Execs++
		if out.fail != "" {
			res.Failures = append(res.Failures,
				SearchFailure{Seed: cands[i].seed, Mut: cands[i].mut, Err: out.fail})
		}
		if out.cover == nil {
			continue // rejected by Validate
		}
		res.Ran++
		if gain := global.Merge(out.cover); gain > 0 && admit {
			res.Corpus = append(res.Corpus, CorpusEntry{Seed: cands[i].seed, Mut: cands[i].mut, Gain: gain})
		}
	}
	return nil
}

// Search runs a coverage search campaign. The seed corpus replays first:
// it sets the starting bitmap, is never re-admitted and does not count
// against Execs. Then Execs fresh (seed, mut) pairs, drawn in order from
// rng.New(Seed).Split("covsearch"), execute under a model-state coverage
// map, and any draw whose run sets a coverage record — a new feature, or
// a known feature driven into a higher count class — is admitted to the
// corpus. Draws take no feedback from coverage (DESIGN.md Sec. 12.3 says
// why). The result is deterministic in SearchOptions at any worker count.
func Search(o SearchOptions) (SearchResult, error) {
	o.defaults()
	global := &modelcov.Map{}
	res := SearchResult{Cover: global, Corpus: append([]CorpusEntry(nil), o.Corpus...)}
	replay := make([]searchCandidate, len(o.Corpus))
	for i, e := range o.Corpus {
		replay[i] = searchCandidate{seed: e.Seed, mut: e.Mut}
	}
	if err := execBatch(o, replay, global, &res, false); err != nil {
		return res, err
	}
	res.Execs, res.Ran = 0, 0

	r := rng.New(o.Seed).Split("covsearch")
	draws := make([]searchCandidate, max(o.Execs, 0))
	for i := range draws {
		draws[i] = searchCandidate{seed: r.Uint64(), mut: r.Uint64()}
	}
	err := execBatch(o, draws, global, &res, true)
	return res, err
}

// MinimizeCorpus replays entries in order against a fresh coverage map
// and keeps only those that still contribute a new feature, re-deriving
// each survivor's Gain. Entries that fail to validate or run drop out.
// Use it to compact a corpus after merging campaigns or after the
// feature table grows. maxJobs is the work bound as in SearchOptions, so
// a campaign and its minimization run the same executions.
func MinimizeCorpus(entries []CorpusEntry, maxJobs int64) []CorpusEntry {
	if maxJobs <= 0 {
		maxJobs = searchMaxJobs
	}
	global := &modelcov.Map{}
	var out []CorpusEntry
	for _, e := range entries {
		s := Random(e.Seed)
		mutate(&s, e.Mut)
		BoundWork(&s, maxJobs)
		if s.Validate() != nil {
			continue
		}
		local := &modelcov.Map{}
		if _, err := s.RunCover(local); err != nil {
			continue
		}
		if gain := global.Merge(local); gain > 0 {
			out = append(out, CorpusEntry{Seed: e.Seed, Mut: e.Mut, Gain: gain})
		}
	}
	return out
}

// WriteCorpus writes entries as a text file: one "seed mut gain" line
// per entry (decimal), '#' comments. The format is stable so corpus
// files diff cleanly in review.
func WriteCorpus(path string, entries []CorpusEntry) error {
	var b strings.Builder
	b.WriteString("# covsearch corpus: one \"seed mut gain\" per line.\n")
	b.WriteString("# Replayed by FuzzScenario and seedable into Search.\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "%d %d %d\n", e.Seed, e.Mut, e.Gain)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// ReadCorpus parses one corpus file written by WriteCorpus. The gain
// column is optional (hand-written files may omit it); a line is two or
// three unsigned decimal fields and nothing else.
func ReadCorpus(path string) ([]CorpusEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []CorpusEntry
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) == 2 {
			f = append(f, "0") // the gain column is optional
		}
		ok := len(f) == 3
		var v [3]uint64
		for i := 0; ok && i < len(v); i++ {
			var err error
			v[i], err = strconv.ParseUint(f[i], 10, 64)
			ok = err == nil
		}
		if !ok || v[2] > math.MaxInt {
			return nil, fmt.Errorf("%s:%d: want \"seed mut [gain]\", got %q", path, line, text)
		}
		out = append(out, CorpusEntry{Seed: v[0], Mut: v[1], Gain: int(v[2])})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadCorpusDir reads every *.txt corpus file under dir (sorted by
// name) and concatenates the entries. A missing directory is an empty
// corpus, not an error, so tests run before any campaign has been
// persisted.
func ReadCorpusDir(dir string) ([]CorpusEntry, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []CorpusEntry
	for _, name := range names {
		entries, err := ReadCorpus(name)
		if err != nil {
			return nil, err
		}
		out = append(out, entries...)
	}
	return out, nil
}
