// Command covsearch runs a model-state coverage campaign
// (scenario.Search): a seed corpus replay, then N fresh scenario
// executions under internal/modelcov, reporting which semantic model
// features the campaign reached, which it never reached, and the
// minimized corpus of (seed, mut) inputs that earned the coverage. The
// corpus file it writes is the same format FuzzScenario seeds from, so
// a campaign's findings feed the native fuzzer directly.
//
// Usage:
//
//	covsearch [flags]
//	  -execs N      candidate executions (default 256)
//	  -seed N       campaign seed (default 1)
//	  -workers N    worker pool size (default GOMAXPROCS)
//	  -maxjobs N    per-execution work bound (default 800)
//	  -corpus DIR   seed corpus directory to replay first
//	  -out FILE     write the minimized corpus here
//	  -top N        never-hit features to list (default 15, 0 = all)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"holdcsim/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one CLI invocation; factored from main so tests drive
// the binary in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("covsearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	execs := fs.Int("execs", 256, "candidate executions")
	seed := fs.Uint64("seed", 1, "campaign seed")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	maxJobs := fs.Int64("maxjobs", 800, "per-execution work bound")
	corpusDir := fs.String("corpus", "", "seed corpus directory to replay first")
	out := fs.String("out", "", "write the minimized corpus to this file")
	top := fs.Int("top", 15, "never-hit features to list (0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "covsearch: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if err := campaign(stdout, *execs, *seed, *workers, *maxJobs, *corpusDir, *out, *top); err != nil {
		fmt.Fprintln(stderr, "covsearch:", err)
		return 1
	}
	return 0
}

func campaign(w io.Writer, execs int, seed uint64, workers int, maxJobs int64,
	corpusDir, out string, top int) error {
	o := scenario.SearchOptions{
		Seed:    seed,
		Execs:   execs,
		Workers: workers,
		MaxJobs: maxJobs,
	}
	if corpusDir != "" {
		entries, err := scenario.ReadCorpusDir(corpusDir)
		if err != nil {
			return err
		}
		o.Corpus = entries
		fmt.Fprintf(w, "seed corpus: %d entries from %s\n", len(entries), corpusDir)
	}

	res, err := scenario.Search(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "search: %d execs (%d ran), coverage %d/%d, score %d, corpus %d\n",
		res.Execs, res.Ran, res.Cover.Covered(), res.Cover.Total(),
		res.Cover.Score(), len(res.Corpus))
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAILURE seed=%d mut=%d: %s\n", f.Seed, f.Mut, f.Err)
	}

	fmt.Fprint(w, res.Cover.Report(top))

	if out != "" {
		min := scenario.MinimizeCorpus(res.Corpus, maxJobs)
		if err := scenario.WriteCorpus(out, min); err != nil {
			return err
		}
		fmt.Fprintf(w, "minimized corpus: %d entries -> %s\n", len(min), out)
	}
	if len(res.Failures) > 0 {
		return fmt.Errorf("%d executions failed", len(res.Failures))
	}
	return nil
}
