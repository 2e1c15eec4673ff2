// Package runner executes campaigns of independent simulation runs over
// a worker pool.
//
// Every figure of the paper is a sweep of independent simulations (τ
// grids, utilization points, topology sizes); SPECI-2 (Sriram & Cliff)
// and DCSim (Hu et al.) both identify experiment-campaign throughput —
// not single-run speed — as the practical limit at cloud scale. The
// runner fans sweep points out over GOMAXPROCS workers while preserving
// the repo's determinism contract (DESIGN.md Sec. 3): each Run owns its
// own engine and rng streams derived only from its seed, and results are
// gathered into submission-ordered slices, so parallel output is
// bit-identical to serial output at any worker count.
//
// Replications are first-class: MapReps expands each Run into N
// seed-variants. Replication 0 always uses the campaign's base seed
// unchanged, so a 1-replication campaign reproduces the historical
// single-run output byte-for-byte; replication i > 0 derives its seed
// from the base seed and the run's key via an rng label split, so adding
// replications never perturbs any existing stream.
package runner

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"holdcsim/internal/rng"
)

// Options controls campaign execution. The zero value — all defaults —
// runs one replication per run on GOMAXPROCS workers.
type Options struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Reps is the replication count per run; <= 1 means a single
	// replication at the base seed (the historical behaviour).
	Reps int
}

// WorkerCount resolves the effective pool size.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RepCount resolves the effective replication count.
func (o Options) RepCount() int {
	if o.Reps > 1 {
		return o.Reps
	}
	return 1
}

// Run describes one independent simulation in a campaign. Do must be a
// pure function of the seed: it builds its own engine, rng streams,
// policies and traces, shares no mutable state with other runs, and
// returns the same T for the same seed. Key is a stable label used for
// replication-seed derivation and error reporting — changing a Key
// changes the seeds of its replications > 0 (never replication 0).
// Runs whose results are compared pairwise (policy A vs policy B on
// "the same workload") should share a Key: replication i of each then
// runs the same derived seed — common random numbers — so their
// difference measures the policies, not seed noise.
type Run[T any] struct {
	Key string
	Do  func(seed uint64) (T, error)
}

// RepSeed derives the seed for one replication of a run. Replication 0
// is the base seed itself; replication i > 0 splits a fresh stream on
// the label "rep/<key>/<i>", so the derived seeds are stable under code
// changes elsewhere and distinct across keys and indices.
func RepSeed(seed uint64, key string, rep int) uint64 {
	if rep <= 0 {
		return seed
	}
	return rng.New(seed).Split(fmt.Sprintf("rep/%s/%d", key, rep)).Uint64()
}

// One runs a single-simulation campaign: do is executed once per
// replication (serially when Reps is 1) and the replications are
// returned as one slice, rep 0 first at the base seed. It is the
// single-run shape of MapReps for experiments that are one simulation
// rather than a sweep.
func One[T any](o Options, seed uint64, key string, do func(uint64) (T, error)) ([]T, error) {
	reps, err := MapReps(o, seed, []Run[T]{{Key: key, Do: do}})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// Map executes each run once at the campaign's base seed and returns
// results in submission order. Output is identical at any worker count.
func Map[T any](o Options, seed uint64, runs []Run[T]) ([]T, error) {
	o.Reps = 1
	reps, err := MapReps(o, seed, runs)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(reps))
	for i, r := range reps {
		out[i] = r[0]
	}
	return out, nil
}

// MapReps executes every (run, replication) pair over the worker pool
// and returns out[i][j] = result of runs[i] at replication j. The first
// error in submission order is returned — the same error regardless of
// worker count or completion order — wrapped with the run's index and
// key (the index disambiguates paired runs that share a key for common
// random numbers).
func MapReps[T any](o Options, seed uint64, runs []Run[T]) ([][]T, error) {
	nrep := o.RepCount()
	out := make([][]T, len(runs))
	errs := make([][]error, len(runs))
	for i := range runs {
		out[i] = make([]T, nrep)
		errs[i] = make([]error, nrep)
	}

	type task struct{ run, rep int }
	total := len(runs) * nrep
	workers := o.WorkerCount()
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		// Serial fast path: no goroutines, same submission order.
		for i, r := range runs {
			for j := 0; j < nrep; j++ {
				out[i][j], errs[i][j] = r.Do(RepSeed(seed, r.Key, j))
			}
		}
	} else {
		tasks := make(chan task)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for t := range tasks {
					r := runs[t.run]
					out[t.run][t.rep], errs[t.run][t.rep] =
						r.Do(RepSeed(seed, r.Key, t.rep))
				}
			}()
		}
		for i := range runs {
			for j := 0; j < nrep; j++ {
				tasks <- task{i, j}
			}
		}
		close(tasks)
		wg.Wait()
	}

	for i, r := range runs {
		for j, err := range errs[i] {
			if err != nil {
				return nil, fmt.Errorf("runner: run %d %q (rep %d): %w", i, r.Key, j, err)
			}
		}
	}
	return out, nil
}

// Summary aggregates replicated samples of one metric.
type Summary struct {
	N    int
	Mean float64
	// Std is the sample (n-1) standard deviation; 0 for N <= 1.
	Std float64
	// CI95 is the normal-approximation 95% confidence half-width,
	// 1.96·Std/√N; 0 for N <= 1.
	CI95 float64
}

// Summarize reduces samples to mean/stddev/CI. Edge cases are exact
// rather than NaN: no samples yields the zero Summary, one sample yields
// its value with zero spread.
func Summarize(samples []float64) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{N: 1, Mean: mean}
	}
	ss := 0.0
	for _, v := range samples {
		d := v - mean
		ss += d * d
	}
	std := math.Sqrt(ss / float64(n-1))
	return Summary{
		N:    n,
		Mean: mean,
		Std:  std,
		CI95: 1.96 * std / math.Sqrt(float64(n)),
	}
}

// SummarizeBy extracts one metric from each replication and summarizes.
func SummarizeBy[T any](reps []T, metric func(T) float64) Summary {
	samples := make([]float64, len(reps))
	for i, r := range reps {
		samples[i] = metric(r)
	}
	return Summarize(samples)
}

// MeanBy is SummarizeBy reduced to the mean.
func MeanBy[T any](reps []T, metric func(T) float64) float64 {
	return SummarizeBy(reps, metric).Mean
}
