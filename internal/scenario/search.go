package scenario

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"holdcsim/internal/core"
	"holdcsim/internal/modelcov"
	"holdcsim/internal/network"
	"holdcsim/internal/rng"
	"holdcsim/internal/runner"
	"holdcsim/internal/sched"
)

// This file is the coverage-guided scenario search harness: blind
// fuzzing mutates (seed, mut) words with no signal about *model* state
// — it can run thousands of execs that never park a server in a deep
// sleep state, fill an egress ring, or trip a cascade. GuidedSearch
// closes the loop using internal/modelcov: after each batch the
// features no run has reached yet are turned, through a table of
// recipes, into candidates aimed at them, and an input whose run sets a
// coverage record earns a corpus slot. The same (seed, mut) encoding is
// shared with FuzzScenario, so a corpus found here seeds the native
// fuzzer directly.

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
// one nibble perturbs exactly one axis, so a recipe composes a word
// from {axis, value} pairs and go-fuzz's byte-level mutations of the
// word translate to small scenario edits instead of whole-scenario
// rerolls. Nibble positions are load-bearing
// for recorded (seed, mut) corpus pairs: never renumber an axis; new
// axes must subdivide an existing nibble's value space or widen the
// word.
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

// SearchOptions configures GuidedSearch / BlindSearch.
type SearchOptions struct {
	// Seed drives candidate generation. The same (Seed, Execs,
	// BatchSize, Corpus) always explores the same candidates, at any
	// worker count.
	Seed uint64
	// Execs is the total number of candidate executions.
	Execs int
	// Workers is the execution pool size; <= 0 means GOMAXPROCS.
	Workers int
	// BatchSize is how many candidates are decided ahead of execution.
	// Corpus feedback applies between batches, so a smaller batch
	// follows the coverage signal more closely at the cost of less
	// parallelism. <= 0 means 16.
	BatchSize int
	// MaxJobs is the per-execution work bound (BoundWork); <= 0 means
	// 800, the FuzzScenario clamp.
	MaxJobs int64
	// Corpus optionally seeds the search with prior findings.
	Corpus []CorpusEntry
}

func (o *SearchOptions) defaults() {
	if o.BatchSize <= 0 {
		o.BatchSize = 16
	}
	if o.MaxJobs <= 0 {
		o.MaxJobs = 800
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

// candidate is one planned execution.
type searchCandidate struct {
	seed, mut uint64
}

// execBatch runs one batch of candidates through the campaign runner
// and folds their coverage into the result in submission order, so the
// outcome is independent of the worker count.
func execBatch(o SearchOptions, cands []searchCandidate, global *modelcov.Map,
	res *SearchResult, admit func(c searchCandidate, gain int)) error {
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
		if gain := global.Merge(out.cover); gain > 0 && admit != nil {
			admit(cands[i], gain)
		}
	}
	return nil
}

// A covRecipe composes candidates aimed at a group of coverage
// features: match selects the features the recipe hunts, base is the
// predicate a fresh base draw must satisfy (feature preconditions the
// mutation word cannot set, e.g. a comm mode), and word builds the
// mutation word. Recipes encode the same precondition knowledge the
// feature table itself does — a fluid-flow terminal needs the fluid
// model on packet comm, a deep cascade needs the renewal family with
// high cascade probability — and turning the never-hit list into
// candidates through them is what lets a search assemble multi-axis
// conjunctions that uniform sampling has no realistic chance of
// drawing at small budgets.
type covRecipe struct {
	match func(f modelcov.Feature) bool
	base  func(s *Scenario) bool
	word  func(r *rng.Source) uint64
}

// wordOf assembles a mutation word from {axis, value} nibble pairs.
func wordOf(nibs ...[2]uint64) uint64 {
	var mut uint64
	for _, nv := range nibs {
		mut |= (nv[1] & 0xf) << (4 * nv[0])
	}
	return mut
}

func anyBase(*Scenario) bool { return true }

func between(f, lo, hi modelcov.Feature) bool { return f >= lo && f <= hi }

// covRecipes is consulted in order; the first recipe matching an unhit
// feature proposes for it. Nibble values reference the mutate axis
// table above.
var covRecipes = []covRecipe{
	{ // Deep queue buckets: overload a one-server farm for a long horizon.
		match: func(f modelcov.Feature) bool {
			return between(f, modelcov.QueueDepth(5), modelcov.QueueDepth(1000))
		},
		base: anyBase,
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{0, 14}, [2]uint64{1, 15}, [2]uint64{2, 15}, [2]uint64{3, 1})
		},
	},
	{ // Deep global-queue buckets: same, on a global-queue base.
		match: func(f modelcov.Feature) bool {
			return between(f, modelcov.GlobalQueueDepth(5), modelcov.GlobalQueueDepth(1000))
		},
		base: func(s *Scenario) bool { return s.GlobalQueue },
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{0, 14}, [2]uint64{1, 15}, [2]uint64{2, 15}, [2]uint64{3, 1})
		},
	},
	{ // Cascades: renewal faults, fast MTTF, P=0.75 at depth 3, long horizon.
		match: func(f modelcov.Feature) bool {
			return f == modelcov.CascadeDepth1 || f == modelcov.CascadeDepth2 ||
				f == modelcov.CascadeDepth3Plus
		},
		base: anyBase,
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{7, 15}, [2]uint64{8, 1}, [2]uint64{10, 3},
				[2]uint64{2, 15}, [2]uint64{15, 15})
		},
	},
	{ // Fluid terminals: fluid model on packet comm, heavy edges, repeated
		// link flaps and a switch kill so flows die mid-drain.
		match: func(f modelcov.Feature) bool {
			return f == modelcov.NetFluidComplete || f == modelcov.NetFluidFailed ||
				f == modelcov.DropFluidKill
		},
		base: func(s *Scenario) bool {
			return s.Comm == core.CommPacket && s.Topology.Kind != TopoNone
		},
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{6, 15}, [2]uint64{4, 15}, [2]uint64{11, 2},
				[2]uint64{7, 1}, [2]uint64{9, 5}, [2]uint64{2, 15}, [2]uint64{15, 15})
		},
	},
	{ // Flow terminals: flow comm, heavy edges, link flaps + switch kill.
		match: func(f modelcov.Feature) bool {
			return f == modelcov.NetFlowComplete || f == modelcov.NetFlowFailed ||
				f == modelcov.NetFlowDeadStart
		},
		base: func(s *Scenario) bool {
			return s.Comm == core.CommFlow && s.Topology.Kind != TopoNone
		},
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{4, 15}, [2]uint64{11, 2}, [2]uint64{7, 1},
				[2]uint64{9, 5}, [2]uint64{2, 15}, [2]uint64{15, 15})
		},
	},
	{ // Switch power paths: short switch sleep timer, light load, traffic.
		match: func(f modelcov.Feature) bool {
			return f == modelcov.SwitchSleep || f == modelcov.SwitchWake ||
				f == modelcov.PortLPIEnter || f == modelcov.PortLPIWake
		},
		base: func(s *Scenario) bool {
			return s.Topology.Kind != TopoNone && s.Comm != core.CommNone
		},
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{12, 2}, [2]uint64{0, 3}, [2]uint64{2, 15})
		},
	},
	{ // Drop sites and in-flight fault kinds: heavy bursty traffic over
		// slow links while faults flap links and kill switches. The same
		// storm is what strands a pre-placed child task on a server that
		// dies mid-transfer (static-replace).
		match: func(f modelcov.Feature) bool {
			return between(f, modelcov.DropEnqueueLinkDown, modelcov.DropSweep) ||
				between(f, modelcov.FaultKind(2), modelcov.FaultKind(5)) ||
				f == modelcov.SchedStaticReplace
		},
		base: func(s *Scenario) bool {
			return s.Comm != core.CommNone && s.Topology.Kind != TopoNone
		},
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{4, 15}, [2]uint64{11, 2}, [2]uint64{1, 15},
				[2]uint64{7, 1}, [2]uint64{9, 5}, [2]uint64{0, 14},
				[2]uint64{2, 15}, [2]uint64{15, 15})
		},
	},
	{ // Correlated scope faults: rack/pod/subtree kills on a real topology.
		match: func(f modelcov.Feature) bool {
			return between(f, modelcov.ScopeDown(0), modelcov.ScopeDown(3)) ||
				f == modelcov.FaultKind(6) || f == modelcov.FaultKind(7)
		},
		base: func(s *Scenario) bool { return s.Topology.Kind != TopoNone },
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{7, 6}, [2]uint64{8, 1}, [2]uint64{9, 1},
				[2]uint64{2, 15}, [2]uint64{15, 15})
		},
	},
	{ // Crash-path branches: repeated long crashes on a tiny farm; p3 draws
		// both orphan policies across attempts.
		match: func(f modelcov.Feature) bool {
			return between(f, modelcov.SchedOrphanRequeue, modelcov.SchedDeferredPlace) &&
				f != modelcov.SchedStaticReplace ||
				f == modelcov.PlaceAllDown ||
				between(f, modelcov.FaultKind(0), modelcov.FaultKind(1))
		},
		base: anyBase,
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{7, 1}, [2]uint64{8, 15}, [2]uint64{10, uint64(r.IntN(16))},
				[2]uint64{3, 1}, [2]uint64{2, 15}, [2]uint64{15, 15})
		},
	},
	{ // Rare residency transitions: sleep timers + renewal faults so sleep
		// states and failures interleave.
		match: func(f modelcov.Feature) bool {
			return between(f, modelcov.SrvTransition(0, 0),
				modelcov.SrvTransition(modelcov.NumSrvStates-1, modelcov.NumSrvStates-1))
		},
		base: anyBase,
		word: func(r *rng.Source) uint64 {
			return wordOf([2]uint64{5, 1 + uint64(r.IntN(4))}, [2]uint64{12, 2},
				[2]uint64{7, 11}, [2]uint64{8, 1}, [2]uint64{0, 3},
				[2]uint64{2, 15}, [2]uint64{15, 15})
		},
	},
}

// directed proposes a candidate hunting a still-unhit feature through
// the recipe table. Each recipe's target set is charged collectively
// and capped, so structurally unreachable features (the canary
// transitions modelcov keeps on purpose) cannot absorb the budget:
// after a few fruitless attempts a recipe retires for the campaign.
func directed(r *rng.Source, global *modelcov.Map, tries map[modelcov.Feature]int) (searchCandidate, bool) {
	unhit := global.NeverHit()
	if len(unhit) == 0 {
		return searchCandidate{}, false
	}
	start := r.IntN(len(unhit))
	for k := 0; k < len(unhit); k++ {
		f := unhit[(start+k)%len(unhit)]
		if tries[f] >= 3 {
			continue
		}
		for _, rec := range covRecipes {
			if !rec.match(f) {
				continue
			}
			mut := rec.word(r)
			for try := 0; try < 48; try++ {
				seed := r.Uint64()
				s := Random(seed)
				if rec.base(&s) {
					for _, g := range unhit {
						if rec.match(g) {
							tries[g]++
						}
					}
					return searchCandidate{seed: seed, mut: mut}, true
				}
			}
			break // matched, but no base draw qualified: next feature
		}
	}
	return searchCandidate{}, false
}

// GuidedSearch runs a coverage-guided scenario search campaign: batches
// of (seed, mut) candidates execute under a model-state coverage map,
// and any candidate whose run sets a coverage record — a new feature,
// or a known feature driven into a higher count class — is admitted to
// the corpus. Candidates come from two sources: a blind (seed, mut)
// draw, and, once the first batch has landed, with probability one half
// a recipe proposal aimed at a feature no run has reached yet
// (directed). A third source has to earn its place the way these did:
// by a paired measurement over campaign seeds (DESIGN.md Sec. 12.3
// records one that a word schedule, a novelty tournament and corpus
// mutation did not pass). The result is deterministic in SearchOptions
// at any worker count.
func GuidedSearch(o SearchOptions) (SearchResult, error) { return search(o, true) }

// BlindSearch is the uniform-random baseline: the same executor and
// budget as GuidedSearch, but every candidate is a fresh (seed, mut)
// draw — no corpus, no feedback. cmd/covsearch and the pinned-seed
// regression test compare the two at equal exec counts.
func BlindSearch(o SearchOptions) (SearchResult, error) { return search(o, false) }

// search is the campaign loop both searches share; guided adds the seed
// corpus replay, corpus admission and the directed proposals.
func search(o SearchOptions, guided bool) (SearchResult, error) {
	o.defaults()
	r := rng.New(o.Seed).Split("covsearch")
	global := &modelcov.Map{}
	res := SearchResult{Cover: global}
	var admit func(c searchCandidate, gain int)
	if guided {
		res.Corpus = append([]CorpusEntry(nil), o.Corpus...)
		admit = func(c searchCandidate, gain int) {
			res.Corpus = append(res.Corpus, CorpusEntry{Seed: c.seed, Mut: c.mut, Gain: gain})
		}
	}

	// Replay the seed corpus first (it defines the starting bitmap but
	// is never re-admitted).
	if len(res.Corpus) > 0 {
		cands := make([]searchCandidate, len(res.Corpus))
		for i, e := range res.Corpus {
			cands[i] = searchCandidate{seed: e.Seed, mut: e.Mut}
		}
		if err := execBatch(o, cands, global, &res, nil); err != nil {
			return res, err
		}
		res.Execs = 0 // corpus replay doesn't count against the budget
		res.Ran = 0
	}

	tries := map[modelcov.Feature]int{}
	for res.Execs < o.Execs {
		n := o.BatchSize
		if rem := o.Execs - res.Execs; n > rem {
			n = rem
		}
		cands := make([]searchCandidate, n)
		for i := range cands {
			// Directed proposals wait for the first batch to land: before any
			// coverage has been observed the never-hit list is vacuous, and a
			// campaign that starts hunting "missing" features it has not even
			// tried to reach by sampling wastes its cheapest discoveries.
			if guided && res.Execs > 0 && r.Bernoulli(0.5) {
				if c, ok := directed(r, global, tries); ok {
					cands[i] = c
					continue
				}
			}
			cands[i] = searchCandidate{seed: r.Uint64(), mut: r.Uint64()}
		}
		if err := execBatch(o, cands, global, &res, admit); err != nil {
			return res, err
		}
	}
	return res, nil
}

// MinimizeCorpus replays entries in order against a fresh coverage map
// and keeps only those that still contribute a new feature, re-deriving
// each survivor's Gain. Entries that fail to validate or run drop out.
// Use it to compact a corpus after merging campaigns or after the
// feature table grows.
func MinimizeCorpus(entries []CorpusEntry, maxJobs int64) []CorpusEntry {
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
	b.WriteString("# Replayed by FuzzScenario and seedable into GuidedSearch.\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "%d %d %d\n", e.Seed, e.Mut, e.Gain)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// ReadCorpus parses one corpus file written by WriteCorpus. The gain
// column is optional (hand-written files may omit it).
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
		var e CorpusEntry
		n, err := fmt.Sscanf(text, "%d %d %d", &e.Seed, &e.Mut, &e.Gain)
		if err != nil && n < 2 {
			return nil, fmt.Errorf("%s:%d: want \"seed mut [gain]\", got %q", path, line, text)
		}
		out = append(out, e)
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
